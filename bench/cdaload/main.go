// Command cdaload is the turn benchmark: it builds cmd/cdaserver and
// cmd/cdarouter, starts them as child processes in the production
// configuration (default flags plus -data-dir and -versioned), drives
// a seeded dialogue population closed-loop, checks that what was
// acknowledged is what the servers hold — also after a SIGKILL — and
// prints every metric by name and unit. With -trace 1 it adds the
// per-layer budget from an in-process traced replay of the same ops.
//
// Usage (from the repository root; bench/run.sh builds it and passes
// its arguments on):
//
//	cdaload -workload dialogue_mix -seed 1 -seconds 8 -trace 0   one workload, one JSON result line
//	cdaload -seed 1 -out bench/out/result.json                   all workloads, both passes
//	cdaload -compare a.json b.json                               two result files against BENCHMARK.json
//
// See bench/README.md for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/storage"
)

// frozenSeconds is the -seconds value the op counts below were sized
// at (a fifth of it per repetition at the commit that added the
// benchmark). Another -seconds scales the counts in proportion, so
// equal -seconds always means equal work.
const (
	frozenSeconds = 8
	repetitions   = 5
	// setupBudget is the set-up time a repetition spends on set-ups, its
	// own start included: well over a hundred spawn → healthy cycles
	// where set-up is a process spawn, three or four where it loads and
	// commits 60 000 rows.
	setupBudget = 2 * time.Second
)

// workloadSpec is one frozen workload definition.
type workloadSpec struct {
	name, why string
	clients   int
	cluster   bool // cdarouter in front of a primary and a replica
	csv       bool // serve harness-generated tables through -csv
	mix       mix
	sessions  int // dialogues per repetition at frozenSeconds
	// history_reads: sessions and mix.turns describe the pre-populated
	// transcripts (fixed), historyOps the measured list at frozenSeconds.
	historyOps int
}

var dialogueMix = mix{turns: 8, arcShare: 0.5, chain: 0.22, oog: 0.06, confirm: 0.04, readShare: 0.12, zipfS: 1.5}

// The counts are sized so that a run's five repetitions together have
// at least ten samples beyond every reported percentile: 1 000 asks
// for p99, 200 page reads for p95.
var workloads = []workloadSpec{
	{name: "dialogue_mix", clients: 2, mix: dialogueMix, sessions: 48,
		why: "2 clients, 48 sessions x 8 turns per repetition on one versioned node: the paper's dialogue; WAL fsync and session-root commit dominate, sqldb does almost nothing"},
	{name: "scan_heavy", clients: 1, csv: true, sessions: 28,
		mix: mix{turns: 8, chain: 0.25, oog: 0.02, readShare: 0.25},
		why: "1 client, 28 sessions x 8 mostly-distinct questions over a 60k-row CSV table: nl2sql and sqldb dominate, so executor changes show here and storage-spine changes must not"},
	{name: "history_reads", clients: 2, sessions: 8, historyOps: 2400,
		mix: mix{turns: 32, arcShare: 0.5, chain: 0.22, oog: 0.06, confirm: 0.04, zipfS: 1.5},
		why: "2 clients, 2400 page and as-of reads (90%) and asks (10%) on 8 pre-populated 64-turn transcripts: a commit-path gain that costs time travel or page reads shows here"},
	{name: "cluster_ship", clients: 1, cluster: true, sessions: 28,
		mix: func() mix { m := dialogueMix; m.replica, m.readShare = true, 0.25; return m }(),
		why: "1 client, 28 sessions x 8 turns through cdarouter to a primary and a replica: the only workload with routing and synchronous WAL shipping on the blocking path"},
}

// boundWorkload is a spec bound to a seed and a size: the generated lists.
type boundWorkload struct {
	spec     workloadSpec
	sessions int
	prepop   []op // set-up pass (history_reads)
	ops      []op // measured pass
	csvPaths []string
	digest   string
}

// traceOps is the list the traced replay performs: the set-up pass
// and the first quarter of the measured list.
func (w *boundWorkload) traceOps() []op {
	return append(append([]op(nil), w.prepop...), w.ops[:(len(w.ops)+3)/4]...)
}

// harness is the state shared by every pass of one invocation.
type harness struct {
	clock   resilience.Clock
	binDir  string
	workDir string // data dirs, under the build dir of the checkout
	outDir  string
	repCut  time.Duration // a measured pass is cut here; unsent ops count as failed
	// setupBudget is the set-up time a repetition spends on set-ups; 0
	// leaves it at its own start.
	setupBudget time.Duration
	env         envBlock
}

func scaled(n int, seconds int, quick bool) int {
	if quick {
		n = n * 3 / 100
	} else {
		n = int(math.Round(float64(n) * float64(seconds) / frozenSeconds))
	}
	if n < 2 {
		n = 2
	}
	return n
}

// prepare generates the workload's op lists (and tables) from the seed.
func (h *harness) prepare(spec workloadSpec, seed int64, seconds int, quick bool) (*boundWorkload, error) {
	w := &boundWorkload{spec: spec}
	var shapes []tableShape
	var err error
	if spec.csv {
		rows := ordersRows
		if quick {
			rows = 2000
		}
		orders, regions := scanTables(rows)
		if shapes, err = scanShapes(orders, regions); err != nil {
			return nil, err
		}
		db, dir := storage.NewDatabase("scan"), filepath.Join(h.workDir, "csv")
		for _, t := range []*storage.Table{orders, regions} {
			db.Put(t)
			w.csvPaths = append(w.csvPaths, filepath.Join(dir, t.Name+".csv"))
		}
		if err := storage.SaveDir(db, dir); err != nil {
			return nil, err
		}
	} else if shapes, err = swissShapes(serverSeed); err != nil {
		return nil, err
	}
	if spec.historyOps > 0 {
		w.sessions = spec.sessions
		m := spec.mix
		if quick {
			w.sessions, m.turns = 4, 6
		}
		w.prepop, w.ops = historyOps(seed, shapes, m, w.sessions, scaled(spec.historyOps, seconds, quick))
	} else {
		w.sessions = scaled(spec.sessions, seconds, quick)
		w.ops = dialogueOps(seed, shapes, spec.mix, w.sessions)
	}
	if w.digest, err = opDigest(w.prepop, w.ops); err != nil {
		return nil, err
	}
	return w, nil
}

// workloadResult is everything one workload produced.
type workloadResult struct {
	Name       string                 `json:"name"`
	Why        string                 `json:"why"`
	Clients    int                    `json:"clients"`
	Sessions   int                    `json:"sessions"`
	Ops        int                    `json:"ops"`
	SetupOps   int                    `json:"setup_ops"`
	OpDigest   string                 `json:"op_digest"`
	CodeDigest string                 `json:"code_digest"`
	Commands   [][]string             `json:"commands"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Violations []string               `json:"violations,omitempty"`
	EndToEnd   map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
	Budget     []layerTime            `json:"budget,omitempty"`
}

// result is the -out document; Claim is always null — the benchmark
// is the instrument, it claims no gain.
type result struct {
	Claim     *string          `json:"claim"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Quick     bool             `json:"quick,omitempty"`
	Env       envBlock         `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

// absorb folds one repetition's checks into the workload result.
func (wr *workloadResult) absorb(rep int, r *repResult) {
	wr.Attempted += r.log.attempted
	wr.Failed += r.log.failed
	if r.log.shed > 0 {
		r.violations = append(r.violations, fmt.Sprintf("%d requests shed (429)", r.log.shed))
	}
	if r.log.status5xx > 0 {
		r.violations = append(r.violations, fmt.Sprintf("%d responses were 5xx", r.log.status5xx))
	}
	if wr.CodeDigest == "" {
		wr.CodeDigest, wr.Commands = r.codeDigest, r.commands
	} else if r.codeDigest != wr.CodeDigest {
		r.violations = append(r.violations, "code_digest differs from the first repetition's")
	}
	for _, v := range r.violations {
		wr.Violations = append(wr.Violations, fmt.Sprintf("rep %d: %s", rep, v))
	}
}

// measure runs the repetitions and reports every end-to-end and
// black-box per-layer metric as its median repetition, which survives
// a noisy-neighbour burst hitting a minority of them; the latency
// percentiles are taken over the samples of all repetitions. It
// returns the last repetition's killed primary's data dir for the
// traced pass to time a recovery on; the caller removes it.
func (h *harness) measure(ctx context.Context, w *boundWorkload, wr *workloadResult) (dataDir string, err error) {
	vals := map[string][]float64{}
	samples := map[string]int{}
	var reps []*repResult
	for rep := 0; rep < repetitions; rep++ {
		r, err := h.repetition(ctx, w, rep, rep == repetitions-1)
		if err != nil {
			return "", err
		}
		dataDir = r.dataDir
		wr.absorb(rep, r)
		reps = append(reps, r)
		for name, s := range r.endToEnd() {
			vals[name] = append(vals[name], s.v)
			samples[name] += s.n
		}
		for name, v := range r.blackBox() {
			vals[name] = append(vals[name], v)
		}
	}
	wr.EndToEnd = map[string]metricValue{}
	for _, d := range endToEnd {
		wr.EndToEnd[d.name] = metricValue{Value: median(vals[d.name]), Unit: d.unit, Samples: samples[d.name], Reps: vals[d.name]}
	}
	lat := latencies(reps)
	wr.PerLayer = map[string]metricValue{}
	for _, d := range perLayer {
		if xs, ok := vals[d.name]; ok {
			wr.PerLayer[d.name] = metricValue{Value: median(xs), Unit: d.unit, Reps: xs}
		} else if s, ok := lat[d.name]; ok {
			wr.PerLayer[d.name] = metricValue{Value: s.v, Unit: d.unit, Samples: s.n}
		}
	}
	wr.PerLayer["env.fsync_probe_us"] = metricValue{Value: h.env.FsyncProbeUS, Unit: "us"}
	return dataDir, nil
}

// layers adds the traced replay's per-layer metrics and budget.
func (h *harness) layers(ctx context.Context, w *boundWorkload, wr *workloadResult, recoverDir string) error {
	tr, err := h.tracedPass(ctx, w, recoverDir)
	if err != nil {
		return err
	}
	for _, d := range perLayer {
		if v, ok := tr.metrics[d.name]; ok {
			wr.PerLayer[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	wr.Budget = tr.budget
	return nil
}

func printMetrics(title string, defs []metricDef, vals map[string]metricValue) {
	fmt.Printf("%s\n", title)
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			continue // a trace metric, in a run without the traced pass
		}
		fmt.Printf("  %-40s %14.4f %-6s", d.name, v.Value, v.Unit)
		if v.Samples > 0 {
			fmt.Printf(" n=%d", v.Samples)
		}
		if len(v.Reps) > 0 {
			fmt.Printf(" reps=%.4g", v.Reps)
		}
		fmt.Println()
	}
}

func main() {
	// One exit path kills the children: normal return, signal, or the
	// deadline that keeps a run inside the driver's 180 s.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx)
	stop()
	os.Exit(code)
}

// options is one invocation's settings.
type options struct {
	workload string // empty: every workload, both passes
	seed     int64
	seconds  int
	trace    int
	quick    bool
	buildDir string // binaries and data dirs, inside the checkout
	outDir   string // span files
}

func run(ctx context.Context) int {
	o := options{outDir: filepath.Join("bench", "out")}
	flag.StringVar(&o.workload, "workload", "", "workload to run (empty: all, both passes)")
	flag.Int64Var(&o.seed, "seed", 1, "population seed: the only source of variation")
	flag.IntVar(&o.seconds, "seconds", frozenSeconds, "sizes the op lists: a run measures about this long at the commit the counts were frozen at")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "tiny population (~50 ops per workload), for tests")
	flag.StringVar(&o.buildDir, "build-dir", ".bench_build", "where binaries and data dirs go (inside the checkout)")
	var (
		out     = flag.String("out", "", "write the full result JSON here")
		compare = flag.Bool("compare", false, "compare two result files given as arguments against -bench")
		bench   = flag.String("bench", "BENCHMARK.json", "benchmark definition -compare reads the bounds from")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "cdaload: -compare needs two result files")
			return 2
		}
		return compareFiles(*bench, flag.Arg(0), flag.Arg(1))
	}
	if o.seconds < 1 || o.seconds > 60 {
		fmt.Fprintln(os.Stderr, "cdaload: -seconds must be in 1..60")
		return 2
	}

	if o.workload != "" {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 170*time.Second)
		defer cancel()
	}
	res, err := runAll(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdaload: %v\n", err)
		return 1
	}
	if *out != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			if err = os.MkdirAll(filepath.Dir(*out), 0o755); err == nil {
				err = os.WriteFile(*out, append(raw, '\n'), 0o644)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdaload: write %s: %v\n", *out, err)
			return 1
		}
	}
	if o.workload == "" {
		return 0
	}
	// The driver's contract: the last line is one JSON object.
	wr := res.Workloads[0]
	metrics := wr.EndToEnd
	if o.trace == 1 {
		metrics = wr.PerLayer
	}
	printed := map[string]any{}
	for k, v := range metrics {
		printed[k] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	raw, err := json.Marshal(map[string]any{"correct": wr.Correct, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": printed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdaload: %v\n", err)
		return 1
	}
	fmt.Println(string(raw))
	return 0
}

func runAll(ctx context.Context, o options) (*result, error) {
	h := &harness{clock: resilience.NewWallClock(), binDir: filepath.Join(o.buildDir, "bin"),
		outDir: o.outDir, repCut: 40 * time.Second, setupBudget: setupBudget}
	if o.quick {
		h.setupBudget = 0
	}
	if err := buildServers(ctx, h.binDir); err != nil {
		return nil, err
	}
	var err error
	if h.workDir, err = filepath.Abs(filepath.Join(o.buildDir, fmt.Sprintf("run-%d", os.Getpid()))); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(h.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(h.workDir)
	if h.env, err = probeEnv(ctx, h.clock, h.workDir); err != nil {
		return nil, err
	}
	res := &result{Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Env: h.env}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s commit=%s kernel=%s fs=%s fsync_probe=%.1fus\n",
		h.env.NProc, h.env.GOMAXPROCS, h.env.GoVersion, h.env.Commit, h.env.Kernel, h.env.Filesystem, h.env.FsyncProbeUS)
	found := false
	for _, spec := range workloads {
		if o.workload != "" && spec.name != o.workload {
			continue
		}
		found = true
		w, err := h.prepare(spec, o.seed, o.seconds, o.quick)
		if err != nil {
			return nil, err
		}
		wr := workloadResult{Name: spec.name, Why: spec.why, Clients: spec.clients, Sessions: w.sessions,
			Ops: len(w.ops), SetupOps: len(w.prepop), OpDigest: w.digest}
		fmt.Printf("\n== %s: %d ops (%d asks) + %d set-up ops, %d sessions, %d client(s), op_digest %s\n",
			spec.name, len(w.ops), countKind(w.ops, opAsk), len(w.prepop), w.sessions, spec.clients, w.digest[:16])
		dataDir, err := h.measure(ctx, w, &wr)
		if dataDir != "" {
			defer os.RemoveAll(filepath.Dir(dataDir))
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		if o.workload == "" || o.trace == 1 {
			if err := h.layers(ctx, w, &wr, dataDir); err != nil {
				return nil, fmt.Errorf("%s traced pass: %w", spec.name, err)
			}
		}
		if o.workload == "" || o.trace == 0 {
			printMetrics("end-to-end (median repetition)", endToEnd, wr.EndToEnd)
		}
		printMetrics("per-layer", perLayer, wr.PerLayer)
		if len(wr.Budget) > 0 {
			fmt.Println("budget (in-process replay, self time by span):")
			for _, b := range wr.Budget {
				fmt.Printf("  %-32s calls=%-6d total=%10.2fms self=%10.2fms\n", b.Name, b.Calls, b.TotalMS, b.SelfMS)
			}
		}
		wr.Correct = len(wr.Violations) == 0
		fmt.Printf("code_digest %s correct=%t attempted=%d failed=%d\n", wr.CodeDigest, wr.Correct, wr.Attempted, wr.Failed)
		for _, v := range wr.Violations {
			fmt.Printf("  VIOLATION %s\n", v)
		}
		res.Workloads = append(res.Workloads, wr)
	}
	if !found {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	return res, nil
}
