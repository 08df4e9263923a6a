package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/core"
	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/resilience"
)

// The harness resolves ./cmd/... and BENCHMARK.json from the module
// root, as the benchmark's command does.
func TestMain(m *testing.M) {
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func testHarness(t *testing.T) *harness {
	t.Helper()
	return &harness{clock: resilience.NewWallClock(), workDir: t.TempDir(), repCut: 40 * time.Second}
}

func TestSameSeedSameOps(t *testing.T) {
	h := testHarness(t)
	for _, spec := range workloads {
		a, err := h.prepare(spec, 7, frozenSeconds, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := h.prepare(spec, 7, frozenSeconds, false)
		if err != nil {
			t.Fatal(err)
		}
		c, err := h.prepare(spec, 8, frozenSeconds, false)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest != b.digest {
			t.Errorf("%s: seed 7 gave digests %s and %s", spec.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", spec.name)
		}
		// A follow-up patches the frame its chain's head recorded, so it
		// may only follow that head or a sibling follow-up.
		last := map[int]string{}
		for _, o := range a.ops {
			if o.Kind != opAsk {
				continue
			}
			if o.Class == classFollowUp && last[o.Session] != classHead && last[o.Session] != classFollowUp {
				t.Errorf("%s: follow-up %q follows a %q turn", spec.name, o.Question, last[o.Session])
			}
			last[o.Session] = o.Class
		}
	}
}

// The answer cache must see the hit share each workload was built
// for: a realistic 40–70 % on dialogue_mix, next to none on
// scan_heavy. The share is the one the system itself reports after
// answering the whole list.
func TestAnswerCacheHitShare(t *testing.T) {
	if testing.Short() {
		t.Skip("answers the full-size op lists")
	}
	h := testHarness(t)
	bands := map[string][2]float64{"dialogue_mix": {0.40, 0.70}, "scan_heavy": {0, 0.05}}
	for _, spec := range workloads {
		band, ok := bands[spec.name]
		if !ok {
			continue
		}
		for _, seed := range []int64{1, 2} {
			w, err := h.prepare(spec, seed, frozenSeconds, false)
			if err != nil {
				t.Fatal(err)
			}
			dom, err := loadDomain(w.csvPaths)
			if err != nil {
				t.Fatal(err)
			}
			sys := core.New(dom.cfg)
			sessions := map[int]*dialogue.Session{}
			for _, o := range w.ops {
				switch o.Kind {
				case opCreate:
					sessions[o.Session] = dialogue.NewSession()
				case opAsk:
					if _, err := sys.Respond(context.Background(), sessions[o.Session], o.Question); err != nil {
						t.Fatalf("%s: %q: %v", spec.name, o.Question, err)
					}
				}
			}
			if got := sys.CacheHitRate(); got < band[0] || got > band[1] {
				t.Errorf("%s seed %d: answer-cache hit share %.3f outside [%.2f, %.2f]", spec.name, seed, got, band[0], band[1])
			}
		}
	}
}

// BENCHMARK.json and the harness must name the same workloads and
// metrics, or the driver would wait for a metric that is never printed.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string }
		PerLayer  []struct{ Name, Unit, Better string }
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for key, dst := range map[string]any{"workloads": &bf.Workloads, "end_to_end": &bf.EndToEnd, "per_layer": &bf.PerLayer} {
		if err := json.Unmarshal(doc[key], dst); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, bf.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, defs []metricDef, file []struct{ Name, Unit, Better string }) {
		if len(defs) != len(file) {
			t.Errorf("%s: %d metrics in the harness, %d in BENCHMARK.json", kind, len(defs), len(file))
			return
		}
		for i, d := range defs {
			if f := file[i]; f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("%s metric %d: harness %v, BENCHMARK.json %v", kind, i, d, f)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := write("bench.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "turn_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}}})
	res := func(p50 float64, reps []float64) result {
		return result{Workloads: []workloadResult{{Name: "dialogue_mix", Correct: true, OpDigest: "0123456789abcdef", CodeDigest: "0123456789abcdef",
			EndToEnd: map[string]metricValue{"turn_p50_ms": {Value: p50, Unit: "ms", Reps: reps}}}}}
	}
	base := write("a.json", res(10, []float64{9.9, 10, 10.1}))
	if code := compareFiles(bench, base, write("same.json", res(10.5, []float64{10.4, 10.5, 10.6}))); code != 0 {
		t.Errorf("a 5%% worsening inside a 10%% bound: exit %d, want 0", code)
	}
	if code := compareFiles(bench, base, write("slow.json", res(12, []float64{11.9, 12, 12.1}))); code != 1 {
		t.Errorf("a 20%% worsening against a 10%% bound: exit %d, want 1", code)
	}
	other := res(10, []float64{9.9, 10, 10.1})
	other.Workloads[0].CodeDigest = "fedcba9876543210"
	if code := compareFiles(bench, base, write("other.json", other)); code != 1 {
		t.Errorf("differing code digests: exit %d, want 1", code)
	}
	// A run that lost a create has no code digest and is not correct.
	failed := res(10, []float64{9.9, 10, 10.1})
	failed.Workloads[0].CodeDigest, failed.Workloads[0].Correct = "", false
	if code := compareFiles(bench, base, write("failed.json", failed)); code != 1 {
		t.Errorf("a failed run without a code digest: exit %d, want 1", code)
	}
}

// The whole harness on a tiny population: real child processes, all
// four workloads, both passes, every output check on.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts cdaserver and cdarouter")
	}
	dir := t.TempDir()
	res, err := runAll(context.Background(), options{seed: 3, seconds: frozenSeconds, quick: true,
		buildDir: dir, outDir: filepath.Join(dir, "out")})
	if errors.Is(err, errTmpfs) {
		t.Skip("the test's temp dir is on tmpfs, which the harness refuses to measure on")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("ran %d workloads, want %d", len(res.Workloads), len(workloads))
	}
	for _, w := range res.Workloads {
		if !w.Correct || w.Failed != 0 {
			t.Errorf("%s: correct=%t failed=%d violations=%v", w.Name, w.Correct, w.Failed, w.Violations)
		}
		for _, d := range endToEnd {
			if w.EndToEnd[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v", w.Name, d.name, w.EndToEnd[d.name].Value)
			}
		}
		if len(w.PerLayer) != len(perLayer) || len(w.Budget) == 0 {
			t.Errorf("%s: %d per-layer metrics and %d budget rows", w.Name, len(w.PerLayer), len(w.Budget))
		}
		if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
}
