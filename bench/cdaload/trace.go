package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/reliable-cda/cda/internal/admission"
	"github.com/reliable-cda/cda/internal/catalog"
	"github.com/reliable-cda/cda/internal/cluster"
	"github.com/reliable-cda/cda/internal/core"
	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/ground"
	"github.com/reliable-cda/cda/internal/nl2sql"
	"github.com/reliable-cda/cda/internal/nlmodel"
	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/server"
	"github.com/reliable-cda/cda/internal/sessionstore"
	"github.com/reliable-cda/cda/internal/sqldb"
	"github.com/reliable-cda/cda/internal/storage"
	"github.com/reliable-cda/cda/internal/vstore"
	"github.com/reliable-cda/cda/internal/workload"
)

// cdaserver's flag defaults, which the in-process stack must share.
const (
	serverSeed  = 1
	serverNoise = 0.05
)

// span is one timed call into a layer's public function. Spans of one
// replayed request share Turn (the op index); Parent is the enclosing
// span's ID, 0 for the request's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Turn   int    `json:"turn"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a nil tracer records nothing, which
// is how the overhead pass runs.
type tracer struct {
	clock resilience.Clock
	spans []span
}

func (t *tracer) start(name string, parent, turn int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Turn: turn, Name: name, Start: int64(t.clock.Now())})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].End = int64(t.clock.Now())
	}
}

// layerTime is one row of the per-layer budget: a span name's calls,
// total time, and self time (total minus the time its children cover).
type layerTime struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func budget(spans []span) []layerTime {
	child := make([]int64, len(spans)+1)
	for _, s := range spans {
		child[s.Parent] += s.End - s.Start
	}
	rows := map[string]*layerTime{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerTime{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.Calls++
		r.TotalMS += float64(d) / 1e6
		r.SelfMS += float64(d-child[s.ID]) / 1e6
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// domain is the data side of a server: what cdaserver's main builds
// from -seed/-noise/-csv before it opens any store.
type domain struct {
	cfg core.Config
	cat *catalog.Catalog
	now int
}

func loadDomain(csvPaths []string) (*domain, error) {
	d := &domain{}
	if len(csvPaths) == 0 {
		sw := workload.NewSwissDomain(serverSeed)
		d.cfg = core.Config{DB: sw.DB, Catalog: sw.Catalog, KG: sw.KG, Vocab: sw.Vocab, Documents: sw.Documents, Now: sw.Now}
		d.cat, d.now = sw.Catalog, sw.Now
	} else {
		db := storage.NewDatabase("served")
		d.cat = catalog.New()
		for _, path := range csvPaths {
			name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
			t, err := readCSVFile(name, path)
			if err != nil {
				return nil, err
			}
			db.Put(t)
			d.cat.Add(catalog.Dataset{ID: name, Name: name, Description: "loaded from " + path, Source: path, Table: t})
		}
		d.cfg = core.Config{DB: db, Catalog: d.cat}
	}
	d.cfg.Seed = serverSeed
	d.cfg.HallucinationRate = serverNoise
	return d, nil
}

func readCSVFile(name, path string) (*storage.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return storage.ReadCSV(name, f, nil)
}

// stackConfig selects one of the replay configurations; their
// differences are how the traced pass splits a turn without spans
// inside the program.
type stackConfig struct {
	name      string
	versioned bool // session store commits version roots (-versioned)
	routed    bool // turns go through cluster.Router over LocalNodes
	replica   bool // the routed member has a replica to ship to
}

var (
	cfgDirect      = stackConfig{name: "direct", versioned: true}
	cfgUnversioned = stackConfig{name: "unversioned"}
	cfgRouted      = stackConfig{name: "routed", versioned: true, routed: true}
	cfgShipped     = stackConfig{name: "shipped", versioned: true, routed: true, replica: true}
)

// stack is the in-process server: the same layers handleAsk crosses,
// built through their public constructors only.
type stack struct {
	dom          *domain
	sys          *core.System
	store        *sessionstore.Store
	vs           *vstore.Store
	adm          *admission.Controller
	router       *cluster.Router
	closers      []func() error
	commitDataMS float64
}

func (h *harness) openStore(dir string, versioned bool) (*sessionstore.Store, *vstore.Store, error) {
	cfg := sessionstore.Config{Dir: dir, Shards: 8, SnapshotEvery: 256, TTL: 30 * time.Minute, Clock: h.clock}
	var vs *vstore.Store
	if versioned {
		var err error
		if vs, err = vstore.Open(vstore.Config{Dir: filepath.Join(dir, "vstore")}); err != nil {
			return nil, nil, err
		}
		cfg.Versions = vs
	}
	st, err := sessionstore.Open(cfg)
	if err != nil {
		return nil, nil, err
	}
	return st, vs, nil
}

func (h *harness) buildStack(dir string, csvPaths []string, sc stackConfig, tr *tracer) (*stack, error) {
	dom, err := loadDomain(csvPaths)
	if err != nil {
		return nil, err
	}
	s := &stack{dom: dom}
	if s.store, s.vs, err = h.openStore(filepath.Join(dir, "primary"), sc.versioned); err != nil {
		return nil, err
	}
	s.closers = append(s.closers, s.store.Close)
	cfg := dom.cfg
	if s.vs != nil {
		s.closers = append(s.closers, s.vs.Close)
		cfg.Versions = s.vs
	}
	s.adm = admission.New(admission.Config{Shards: 8, MaxInflight: 64, Clock: h.clock})
	s.sys = core.New(cfg)
	if s.vs != nil {
		id := tr.start("core.commit_data", 0, -1)
		t0 := h.clock.Now()
		if _, err := s.sys.CommitData(0); err != nil {
			return nil, err
		}
		s.commitDataMS = float64(h.clock.Now()-t0) / 1e6
		tr.end(id)
	}
	if !sc.routed {
		return s, nil
	}
	member := cluster.Member{Name: "n1", Primary: cluster.NewLocalNode("n1-primary", s.store, s.sys)}
	if sc.replica {
		rst, rvs, err := h.openStore(filepath.Join(dir, "replica"), true)
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, rst.Close, rvs.Close)
		// The replica only applies shipped frames; it answers nothing
		// unless promoted, so it can share the primary's system.
		member.Replica = cluster.NewLocalNode("n1-replica", rst, s.sys)
	}
	if s.router, err = cluster.NewRouter(cluster.Config{Members: []cluster.Member{member}, Clock: h.clock}); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *stack) close() error {
	var first error
	for _, c := range s.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// turnRec is one replayed ask with the timings the configurations are
// compared on.
type turnRec struct {
	opIndex   int
	question  string
	intent    dialogue.Intent
	hit       bool // served from the answer cache
	abstained bool
	code      string
	turnNS    int64
	respondNS int64
	commitNS  int64
}

// replayLog is what one replay produced.
type replayLog struct {
	turns  []turnRec
	pageNS []int64
	asofNS []int64
	getNS  []int64
	admNS  []int64
	encNS  []int64
}

// replay performs ops on the stack with one goroutine, each turn as
// server.handleAsk does it: admission → Store.Get → Entry.Do
// { System.Respond → Store.CommitTurn } → encode.
func (h *harness) replay(ctx context.Context, s *stack, ops []op, sessions int, tr *tracer) (*replayLog, error) {
	log := &replayLog{}
	ids := make([]string, sessions)
	now := func() int64 { return int64(h.clock.Now()) }
	hits, lookups := 0, 0
	for i, o := range ops {
		switch o.Kind {
		case opCreate:
			if s.router != nil {
				id, err := s.router.CreateSession(ctx)
				if err != nil {
					return nil, err
				}
				ids[o.Session] = id
				continue
			}
			e, err := s.store.NewSession()
			if err != nil {
				return nil, err
			}
			ids[o.Session] = e.ID
		case opAsk:
			rec := turnRec{opIndex: i, question: o.Question}
			start := now()
			if s.router != nil {
				root := tr.start("cluster.router_ask", 0, i)
				resp, err := s.router.Ask(ctx, ids[o.Session], o.Question)
				tr.end(root)
				if err != nil {
					return nil, err
				}
				rec.code = resp.Code
				rec.turnNS = now() - start
				log.turns = append(log.turns, rec)
				continue
			}
			root := tr.start("server.ask", 0, i)
			id := ids[o.Session]
			sp := tr.start("admission.acquire", root, i)
			a0 := now()
			release, err := s.adm.Admit(s.store.ShardIndex(id))
			log.admNS = append(log.admNS, now()-a0)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			sp = tr.start("sessionstore.get", root, i)
			g0 := now()
			entry, status := s.store.Get(id)
			log.getNS = append(log.getNS, now()-g0)
			tr.end(sp)
			if status != sessionstore.Found {
				release()
				return nil, fmt.Errorf("replay: session %s not found", id)
			}
			var ans *core.Answer
			do := tr.start("sessionstore.entry_do", root, i)
			err = entry.Do(func(sess *dialogue.Session) error {
				rsp := tr.start("core.respond", do, i)
				r0 := now()
				a, rerr := s.sys.Respond(ctx, sess, o.Question)
				rec.respondNS = now() - r0
				tr.end(rsp)
				if rerr != nil {
					return rerr
				}
				ans = a
				rec.intent = sess.Turns[len(sess.Turns)-2].Intent
				csp := tr.start("sessionstore.commit_turn", do, i)
				c0 := now()
				cerr := s.store.CommitTurn(entry)
				rec.commitNS = now() - c0
				tr.end(csp)
				return cerr
			})
			tr.end(do)
			if err != nil {
				release()
				return nil, err
			}
			sp = tr.start("server.encode", root, i)
			e0 := now()
			_, err = json.Marshal(server.AskResponseFrom(ans))
			log.encNS = append(log.encNS, now()-e0)
			tr.end(sp)
			release()
			tr.end(root)
			if err != nil {
				return nil, err
			}
			rec.code, rec.abstained = ans.Code, ans.Abstained
			rec.turnNS = now() - start
			// The cache only exposes its hit rate; a self-contained
			// query was a hit exactly when the rate × lookups rose.
			if rec.intent == dialogue.IntentQuery || rec.intent == dialogue.IntentFollowUp {
				if _, perr := nl2sql.ParseIntent(o.Question); perr == nil {
					lookups++
					if got := int(s.sys.CacheHitRate()*float64(lookups) + 0.5); got > hits {
						hits, rec.hit = got, true
					}
				}
			}
			log.turns = append(log.turns, rec)
		case opPage:
			p0 := now()
			if s.router != nil {
				if _, err := s.router.Transcript(ctx, ids[o.Session], o.Offset, o.Limit, o.Replica); err != nil {
					return nil, err
				}
				log.pageNS = append(log.pageNS, now()-p0)
				continue
			}
			sp := tr.start("sessionstore.page_read", 0, i)
			entry, status := s.store.Get(ids[o.Session])
			if status != sessionstore.Found {
				return nil, fmt.Errorf("replay: session %s not found", ids[o.Session])
			}
			page := server.TranscriptPage{Offset: o.Offset, Limit: o.Limit}
			err := entry.Do(func(sess *dialogue.Session) error {
				page.Total = len(sess.Turns)
				for k := o.Offset; k < o.Offset+o.Limit && k < page.Total; k++ {
					t := sess.Turns[k]
					page.Turns = append(page.Turns, server.TranscriptTurn{Role: t.Role.String(), Text: t.Text, Confidence: t.Confidence})
				}
				return nil
			})
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			log.pageNS = append(log.pageNS, now()-p0)
		case opAsOf:
			if s.vs == nil {
				continue
			}
			sp := tr.start("sessionstore.transcript_asof", 0, i)
			p0 := now()
			_, _, err := s.store.TranscriptAsOf(ids[o.Session], o.AsOf)
			log.asofNS = append(log.asofNS, now()-p0)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}
	return log, nil
}

// traceResult is the traced pass of one workload.
type traceResult struct {
	metrics map[string]float64
	budget  []layerTime
}

func nsToMS(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / 1e6
	}
	return out
}

// turnsMS is one timing of every replayed turn, in milliseconds.
func turnsMS(turns []turnRec, f func(turnRec) int64) []float64 {
	out := make([]float64, len(turns))
	for i, t := range turns {
		out[i] = float64(f(t)) / 1e6
	}
	return out
}

// pairedDiffMS is the median over turns of a[i]−b[i]: both replays
// ran the same ops in the same order, so turn i differs only by the
// configuration.
func pairedDiffMS(a, b []turnRec, f func(turnRec) int64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = float64(f(a[i])-f(b[i])) / 1e6
	}
	return percentile(d, 50)
}

// tracedPass replays the traced list in-process with spans around
// every layer call, replays the recorded inputs into the layer
// probes, and replays the list again under each comparison
// configuration. recoverDir is a killed server's data dir to time
// recovery on.
func (h *harness) tracedPass(ctx context.Context, w *boundWorkload, recoverDir string) (*traceResult, error) {
	ops := w.traceOps()
	dir := filepath.Join(h.workDir, "trace-"+w.spec.name)
	defer os.RemoveAll(dir)
	run := func(sc stackConfig, tr *tracer) (*replayLog, *stack, error) {
		s, err := h.buildStack(filepath.Join(dir, sc.name+fmt.Sprint(tr != nil)), w.csvPaths, sc, tr)
		if err != nil {
			return nil, nil, err
		}
		log, err := h.replay(ctx, s, ops, w.sessions, tr)
		if err != nil {
			return nil, nil, errors.Join(err, s.close())
		}
		return log, s, nil
	}

	tr := &tracer{clock: h.clock}
	full, st, err := run(cfgDirect, tr)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	chunks := st.vs.NumChunks()
	m["optimizer.answer_cache_hit_share"] = st.sys.CacheHitRate()
	m["core.commit_data_ms"] = st.commitDataMS
	dom := st.dom
	if err := st.close(); err != nil {
		return nil, err
	}
	if n := len(full.turns); n > 0 {
		m["vstore.chunks_per_turn"] = float64(chunks) / float64(n)
	}

	byIntent := map[string][]float64{}
	var respond []float64
	for _, t := range full.turns {
		ms := float64(t.respondNS) / 1e6
		respond = append(respond, ms)
		key := t.intent.String()
		if t.intent == dialogue.IntentQuery {
			key = "query_miss"
			if t.hit {
				key = "query_hit"
			}
		}
		byIntent[key] = append(byIntent[key], ms)
	}
	m["core.respond_ms"] = percentile(respond, 50)
	for _, k := range []string{"discover", "describe", "analyze", "query_miss", "query_hit", "followup"} {
		m["core.respond_"+k+"_ms"] = percentile(byIntent[k], 50)
	}
	m["admission.acquire_us"] = 1e3 * percentile(nsToMS(full.admNS), 50)
	m["sessionstore.get_us"] = 1e3 * percentile(nsToMS(full.getNS), 50)
	m["server.encode_us"] = 1e3 * percentile(nsToMS(full.encNS), 50)
	m["sessionstore.page_read_us"] = 1e3 * percentile(nsToMS(full.pageNS), 50)
	m["sessionstore.asof_ms"] = percentile(nsToMS(full.asofNS), 50)

	// Layer probes: the recorded inputs replayed into the public entry
	// points the pipeline calls, one layer at a time — before the
	// comparison replays load the tables four more times, so the
	// collector sees the heap a server has.
	grounder := ground.NewGrounder(dom.cfg.KG, dom.cfg.DB, dom.cfg.Vocab)
	translator := nl2sql.NewTranslator(dom.cfg.DB, grounder, serverSeed)
	translator.Channel = nlmodel.Channel{HallucinationRate: serverNoise}
	engine := sqldb.NewEngine(dom.cfg.DB)
	var classify, search, translate, exec []float64
	prev := map[int]*nl2sql.Frame{}
	since := func(t0 time.Duration) float64 { return float64(h.clock.Now()-t0) / 1e6 }
	for _, t := range full.turns {
		sp := tr.start("dialogue.classify", 0, t.opIndex)
		t0 := h.clock.Now()
		dialogue.ClassifyIntent(t.question)
		classify = append(classify, since(t0))
		tr.end(sp)
		if t.intent == dialogue.IntentDiscover {
			sp := tr.start("catalog.search", 0, t.opIndex)
			t0 := h.clock.Now()
			dom.cat.Search(t.question, 3, dom.now)
			search = append(search, since(t0))
			tr.end(sp)
		}
		if t.intent != dialogue.IntentQuery && t.intent != dialogue.IntentFollowUp {
			continue
		}
		si := ops[t.opIndex].Session
		sp = tr.start("nl2sql.translate", 0, t.opIndex)
		t0 = h.clock.Now()
		_, frame, terr := translator.TranslateWithContext(t.question, prev[si])
		translate = append(translate, since(t0))
		tr.end(sp)
		if terr == nil {
			prev[si] = frame
		}
		if t.code != "" && !t.abstained {
			sp := tr.start("sqldb.exec", 0, t.opIndex)
			t0 := h.clock.Now()
			_, qerr := engine.Query(t.code)
			exec = append(exec, since(t0))
			tr.end(sp)
			if qerr != nil && t.intent != dialogue.IntentAnalyze {
				return nil, fmt.Errorf("probe: answered code %q does not execute: %w", t.code, qerr)
			}
		}
	}
	m["dialogue.classify_us"] = 1e3 * percentile(classify, 50)
	m["catalog.search_us"] = 1e3 * percentile(search, 50)
	m["nl2sql.translate_ms"] = percentile(translate, 50)
	m["sqldb.exec_ms"] = percentile(exec, 50)

	// Comparison replays of the same list: spans off (overhead), no
	// version store (WAL alone), routed, routed with a replica.
	var logs []*replayLog
	for _, sc := range []stackConfig{cfgDirect, cfgUnversioned, cfgRouted, cfgShipped} {
		var ctr *tracer
		if sc != cfgDirect {
			ctr = &tracer{clock: h.clock}
		}
		log, s, err := run(sc, ctr)
		if err != nil {
			return nil, err
		}
		if err := s.close(); err != nil {
			return nil, err
		}
		logs = append(logs, log)
	}
	on, off, unv, routed, shipped := full, logs[0], logs[1], logs[2], logs[3]
	commit := func(t turnRec) int64 { return t.commitNS }
	turn := func(t turnRec) int64 { return t.turnNS }
	// The commit's fsyncs vary by more than every span of a turn costs,
	// and all but two clock reads of a turn's tracing fall outside the
	// commit span: the overhead is taken on the rest of the turn.
	busy := func(t turnRec) int64 { return t.turnNS - t.commitNS }
	m["trace.overhead_share"] = ratio(pairedDiffMS(on.turns, off.turns, busy), percentile(turnsMS(off.turns, turn), 50))
	m["sessionstore.wal_commit_ms"] = percentile(turnsMS(unv.turns, commit), 50)
	m["vstore.session_commit_ms"] = pairedDiffMS(on.turns, unv.turns, commit)
	m["cluster.route_ms"] = pairedDiffMS(routed.turns, on.turns, turn)
	m["cluster.ship_ms"] = pairedDiffMS(shipped.turns, routed.turns, turn)

	// Recovery: what a restarted node does before it can serve, on the
	// directory the killed primary of the measured pass left behind.
	if recoverDir != "" {
		sp := tr.start("sessionstore.recover", 0, -1)
		t0 := h.clock.Now()
		rst, rvs, err := h.openStore(recoverDir, true)
		m["sessionstore.recover_ms"] = since(t0)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if err := rst.Close(); err != nil {
			return nil, err
		}
		if err := rvs.Close(); err != nil {
			return nil, err
		}
	}

	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		return nil, err
	}
	raw, err := json.Marshal(tr.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(h.outDir, "trace-"+w.spec.name+".json"), raw, 0o644); err != nil {
		return nil, err
	}
	return &traceResult{metrics: m, budget: budget(tr.spans)}, nil
}
