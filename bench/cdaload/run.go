package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/server"
)

// httpDo performs one request and reads the whole body, so a latency
// taken around it covers send → last byte.
func httpDo(ctx context.Context, hc *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, raw, nil
}

// ack is one acknowledged ask: what the client was told, which is
// what every later read-back must find.
type ack struct {
	Session  int
	Turn     int
	Question string
	Class    string
	Resp     server.AskResponse
}

// askSample is one ask latency with its position in the op list, so
// drift over the run can be cut by op index.
type askSample struct {
	opIndex int
	ms      float64
}

// phaseLog is what one closed-loop pass over an op list produced.
type phaseLog struct {
	attempted, failed int
	shed, status5xx   int
	asks              []askSample
	readsMS           []float64
	createsMS         []float64
	acks              []ack
	failures          []string // first few failure descriptions
}

func (l *phaseLog) merge(o *phaseLog) {
	l.failed += o.failed
	l.shed += o.shed
	l.status5xx += o.status5xx
	l.asks = append(l.asks, o.asks...)
	l.readsMS = append(l.readsMS, o.readsMS...)
	l.createsMS = append(l.createsMS, o.createsMS...)
	l.acks = append(l.acks, o.acks...)
	for _, f := range o.failures {
		if len(l.failures) < 5 {
			l.failures = append(l.failures, f)
		}
	}
}

func (l *phaseLog) fail(status int, what string, err error) {
	l.failed++
	if status == http.StatusTooManyRequests {
		l.shed++
	}
	if status >= 500 {
		l.status5xx++
	}
	if len(l.failures) < 5 {
		l.failures = append(l.failures, fmt.Sprintf("%s: status %d err %v", what, status, err))
	}
}

// runOps drives the op list closed-loop: client c executes, in list
// order, every op whose session index is congruent to c, and sends
// its next request only after the previous response is fully read.
// ids maps session index → server-allocated id and is filled by the
// create ops. When ctx ends the unsent ops count as failed.
//
// The head of the list, through the first ask that grounds, is sent
// alone: internal/ground builds its value index on the first such
// ask without a lock, and two of them arriving together on a freshly
// started server take it down with "concurrent map writes" (seen once
// in about 150 two-client runs; -race names Grounder.buildValueIndex).
// Until that is fixed in the program the benchmark lets the lazy
// set-up finish before the clients overlap.
func runOps(ctx context.Context, clock resilience.Clock, hc *http.Client, base string, ops []op, clients int, ids []string) *phaseLog {
	logs := make([]*phaseLog, clients)
	for c := range logs {
		logs[c] = &phaseLog{}
	}
	send := func(i int) {
		l := logs[ops[i].Session%clients]
		if ctx.Err() != nil {
			l.failed++
			return
		}
		doOp(ctx, clock, hc, base, i, ops[i], ids, l)
	}
	lead := 0
	for grounded := false; clients > 1 && lead < len(ops) && !grounded; lead++ {
		send(lead)
		o := ops[lead]
		grounded = o.Kind == opAsk && (o.Class == classArc || o.Class == classQuery || o.Class == classHead)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := lead; i < len(ops); i++ {
				if ops[i].Session%clients == c {
					send(i)
				}
			}
		}(c)
	}
	wg.Wait()
	total := &phaseLog{attempted: len(ops)}
	for _, l := range logs {
		total.merge(l)
	}
	sort.Slice(total.asks, func(i, j int) bool { return total.asks[i].opIndex < total.asks[j].opIndex })
	return total
}

func doOp(ctx context.Context, clock resilience.Clock, hc *http.Client, base string, i int, o op, ids []string, l *phaseLog) {
	ms := func(since time.Duration) float64 { return float64(clock.Now()-since) / float64(time.Millisecond) }
	switch o.Kind {
	case opCreate:
		t0 := clock.Now()
		status, body, err := httpDo(ctx, hc, http.MethodPost, base+"/sessions", nil)
		d := ms(t0)
		var created struct {
			ID string `json:"id"`
		}
		if err == nil && status == http.StatusCreated {
			err = json.Unmarshal(body, &created)
		}
		if err != nil || status != http.StatusCreated || created.ID == "" {
			l.fail(status, "create", err)
			return
		}
		ids[o.Session] = created.ID
		l.createsMS = append(l.createsMS, d)
	case opAsk:
		body, err := json.Marshal(server.AskRequest{Question: o.Question})
		if err != nil {
			l.fail(0, "encode ask", err)
			return
		}
		t0 := clock.Now()
		status, raw, err := httpDo(ctx, hc, http.MethodPost, base+"/sessions/"+ids[o.Session]+"/ask", body)
		d := ms(t0)
		a := ack{Session: o.Session, Turn: o.Turn, Question: o.Question, Class: o.Class}
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(raw, &a.Resp)
		}
		if err != nil || status != http.StatusOK {
			l.fail(status, "ask "+o.Question, err)
			return
		}
		l.asks = append(l.asks, askSample{opIndex: i, ms: d})
		l.acks = append(l.acks, a)
	case opPage, opAsOf:
		url := fmt.Sprintf("%s/sessions/%s?offset=%d&limit=%d", base, ids[o.Session], o.Offset, o.Limit)
		if o.Replica {
			url += "&replica=1"
		}
		if o.Kind == opAsOf {
			url = fmt.Sprintf("%s/sessions/%s/asof/%d", base, ids[o.Session], o.AsOf)
		}
		t0 := clock.Now()
		status, raw, err := httpDo(ctx, hc, http.MethodGet, url, nil)
		d := ms(t0)
		if err != nil || status != http.StatusOK || len(raw) == 0 {
			l.fail(status, o.Kind, err)
			return
		}
		l.readsMS = append(l.readsMS, d)
	}
}

// codeDigest hashes (session, turn, question, code) of every acked
// ask in session/turn order. The generated code is a pure function of
// the question and the session's own history, so the digest must not
// depend on how clients interleaved.
func codeDigest(acks []ack) string {
	sorted := append([]ack(nil), acks...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Session != sorted[j].Session {
			return sorted[i].Session < sorted[j].Session
		}
		return sorted[i].Turn < sorted[j].Turn
	})
	var buf []byte
	for _, a := range sorted {
		buf = strconv.AppendInt(buf, int64(a.Session), 10)
		buf = append(buf, 0)
		buf = strconv.AppendInt(buf, int64(a.Turn), 10)
		buf = append(buf, 0)
		buf = append(append(buf, a.Question...), 0)
		buf = append(append(buf, a.Resp.Code...), 0)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// verifyTranscripts reads every session back from node (a node URL,
// never the router) and checks it holds exactly the acknowledged
// turns, in order, with the acknowledged answers.
func verifyTranscripts(ctx context.Context, hc *http.Client, node string, ids []string, acks []ack) []string {
	bySession := make([][]ack, len(ids))
	for _, a := range acks {
		bySession[a.Session] = append(bySession[a.Session], a)
	}
	var bad []string
	note := func(format string, args ...any) {
		if len(bad) < 5 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	for si, id := range ids {
		want := bySession[si]
		sort.Slice(want, func(i, j int) bool { return want[i].Turn < want[j].Turn })
		status, raw, err := httpDo(ctx, hc, http.MethodGet,
			fmt.Sprintf("%s/sessions/%s?offset=0&limit=%d", node, id, server.MaxPageLimit), nil)
		if err != nil || status != http.StatusOK {
			note("read back %s from %s: status %d err %v", id, node, status, err)
			continue
		}
		var page server.TranscriptPage
		if err := json.Unmarshal(raw, &page); err != nil {
			note("read back %s: %v", id, err)
			continue
		}
		if page.Total != 2*len(want) || len(page.Turns) != page.Total {
			note("session %s on %s holds %d turns (%d returned), acknowledged %d", id, node, page.Total, len(page.Turns), 2*len(want))
			continue
		}
		for k, a := range want {
			u, s := page.Turns[2*k], page.Turns[2*k+1]
			if u.Role != "user" || u.Text != a.Question || s.Role != "system" || s.Text != a.Resp.Text || s.Confidence != a.Resp.Confidence {
				note("session %s turn %d on %s differs from its acknowledgement", id, k, node)
				break
			}
		}
	}
	return bad
}

// annotated reports whether an acknowledged query turn carries the
// paper's annotations: a confidence in [0,1] and, unless the system
// abstained, the code, at least one source, provenance and the data
// root it was computed against.
func annotated(r server.AskResponse) bool {
	if r.Confidence < 0 || r.Confidence > 1 {
		return false
	}
	if r.Abstained {
		return true
	}
	return r.Code != "" && len(r.Sources) > 0 && r.Provenance != "" && r.DataRoot != ""
}

// repResult is one repetition: fresh servers, fresh data dir, the
// whole op list, the output checks, the kill-and-recover.
type repResult struct {
	prepopS, wallS, recoveryS float64
	setups                    []float64 // every set-up of the repetition: its own start, then the extra cycles
	refUS                     []float64 // the speed reference taken beside them: GET /health round trips
	writeBytes                float64   // charged to the servers during the measured pass
	pre                       *phaseLog // pre-population pass, nil when the workload has none
	log                       *phaseLog // measured pass
	rssMB                     []float64 // largest node's resident set, sampled through the measured pass
	peakRSSMB                 float64
	diskBytes                 int64
	files                     map[string]int64
	replicaDiskBytes          int64
	replicaLag                int64
	httpRoundtripUS           float64
	violations                []string
	codeDigest                string
	commands                  [][]string
	dataDir                   string // primary's, kept only when the caller asked
}

// acks returns every acknowledged ask of the repetition, set-up
// included: all of them must survive.
func (r *repResult) acks() []ack {
	if r.pre == nil {
		return r.log.acks
	}
	return append(append([]ack(nil), r.pre.acks...), r.log.acks...)
}

// topology is the set of child processes one repetition talks to.
type topology struct {
	primary, replica *proc
	servers          []*proc // every child, in start order
	base             string  // where measured ops go: the node, or the router in front of it
	primaryDir       string
	replicaDir       string
}

// startTopology spawns the workload's servers on fresh data dirs
// under dir and returns once every /healthz answers.
func (h *harness) startTopology(ctx context.Context, hc *http.Client, w *boundWorkload, dir string, procs *procSet) (*topology, error) {
	addrs, err := freeAddrs(3)
	if err != nil {
		return nil, err
	}
	startNode := func(name, dataDir, addr string) (*proc, error) {
		argv := []string{filepath.Join(h.binDir, "cdaserver"), "-addr", addr, "-node-name", name,
			"-data-dir", dataDir, "-versioned"}
		if len(w.csvPaths) > 0 {
			argv = append(argv, "-csv", strings.Join(w.csvPaths, ","))
		}
		return procs.start(name, argv, addr)
	}
	t := &topology{primaryDir: filepath.Join(dir, "primary"), replicaDir: filepath.Join(dir, "replica")}
	if t.primary, err = startNode("primary", t.primaryDir, addrs[0]); err != nil {
		return nil, err
	}
	t.servers = []*proc{t.primary}
	t.base = "http://" + t.primary.addr
	if w.spec.cluster {
		if t.replica, err = startNode("replica", t.replicaDir, addrs[1]); err != nil {
			return nil, err
		}
		router, err := procs.start("router", []string{filepath.Join(h.binDir, "cdarouter"), "-addr", addrs[2],
			"-member", "n1=http://" + t.primary.addr + ",http://" + t.replica.addr}, addrs[2])
		if err != nil {
			return nil, err
		}
		t.servers = append(t.servers, t.replica, router)
		t.base = "http://" + addrs[2]
	}
	for _, p := range t.servers {
		if err := waitHealthy(ctx, h.clock, hc, p, "http://"+p.addr+"/healthz", nil); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// nodes are the cdaserver processes: every child but the router.
func (t *topology) nodes() []*proc {
	if t.replica == nil {
		return []*proc{t.primary}
	}
	return []*proc{t.primary, t.replica}
}

// writeBytes sums the bytes every server of the topology has caused
// to be written to storage so far.
func (t *topology) writeBytes() (float64, error) {
	var sum float64
	for _, p := range t.servers {
		n, err := p.writeBytes()
		if err != nil {
			return 0, err
		}
		sum += n
	}
	return sum, nil
}

func newHTTPClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
}

// spawnCycle times one more spawn → /healthz OK of the workload's
// topology on a fresh data dir: one more set-up sample.
func (h *harness) spawnCycle(ctx context.Context, w *boundWorkload) (seconds float64, err error) {
	dir := filepath.Join(h.workDir, w.spec.name+"-setup")
	var procs procSet
	defer func() {
		procs.killAll()
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	t0 := h.clock.Now()
	if _, err := h.startTopology(ctx, hc, w, dir, &procs); err != nil {
		return 0, err
	}
	return (h.clock.Now() - t0).Seconds(), nil
}

// repetition runs one repetition of w. keepDir leaves the primary's
// data dir in place (the traced pass times a recovery on it).
func (h *harness) repetition(ctx context.Context, w *boundWorkload, rep int, keepDir bool) (res *repResult, err error) {
	res = &repResult{}
	dir := filepath.Join(h.workDir, fmt.Sprintf("%s-r%d", w.spec.name, rep))
	var procs procSet
	defer func() {
		procs.killAll()
		if !keepDir || err != nil {
			if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
				err = rerr
			}
		}
	}()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	// Set-up: spawn → every /healthz OK. Pre-population is timed on
	// its own: it is the harness's asks, not work the servers could
	// move into their start-up.
	t0 := h.clock.Now()
	topo, err := h.startTopology(ctx, hc, w, dir, &procs)
	if err != nil {
		return nil, err
	}
	res.setups = []float64{(h.clock.Now() - t0).Seconds()}
	for _, p := range topo.servers {
		res.commands = append(res.commands, p.args)
	}
	ids := make([]string, w.sessions)
	if len(w.prepop) > 0 {
		t0 := h.clock.Now()
		pre := runOps(ctx, h.clock, hc, topo.base, w.prepop, w.spec.clients, ids)
		if pre.failed > 0 {
			return nil, fmt.Errorf("pre-population: %d of %d ops failed: %v%s", pre.failed, pre.attempted, pre.failures, procs.exited())
		}
		res.pre = pre
		res.prepopS = (h.clock.Now() - t0).Seconds()
	}

	// Measured pass, cut at the repetition deadline.
	before, err := topo.writeBytes()
	if err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithTimeout(ctx, h.repCut)
	stopRSS := sampleRSS(runCtx, h.clock, topo.nodes())
	t1 := h.clock.Now()
	res.log = runOps(runCtx, h.clock, hc, topo.base, w.ops, w.spec.clients, ids)
	res.wallS = (h.clock.Now() - t1).Seconds()
	res.rssMB = stopRSS()
	cancel()
	after, err := topo.writeBytes()
	if err != nil {
		// A server that died mid-pass has no /proc entry left to read.
		return nil, fmt.Errorf("%w%s", err, procs.exited())
	}
	res.writeBytes = after - before
	if res.log.failed > 0 {
		res.violations = append(res.violations,
			fmt.Sprintf("%d of %d ops failed: %v%s", res.log.failed, res.log.attempted, res.log.failures, procs.exited()))
	}
	for _, id := range ids {
		if id == "" {
			// Every later check needs the ids; the failed create is
			// already counted above.
			return res, nil
		}
	}
	primaryURL := "http://" + topo.primary.addr

	// HTTP floor: GET /health on the primary is transport + mux + JSON.
	if res.httpRoundtripUS, err = roundTripUS(ctx, h.clock, hc, primaryURL+"/health", 200, 0); err != nil {
		return nil, err
	}

	// Output checks against the live nodes.
	acks := res.acks()
	res.codeDigest = codeDigest(acks)
	res.violations = append(res.violations, verifyTranscripts(ctx, hc, primaryURL, ids, acks)...)
	if topo.replica != nil {
		replicaURL := "http://" + topo.replica.addr
		if res.replicaLag, err = replicaLag(ctx, h.clock, hc, replicaURL); err != nil {
			return nil, err
		}
		if res.replicaLag != 0 {
			res.violations = append(res.violations, fmt.Sprintf("replica still %d records behind after the last op", res.replicaLag))
		}
		res.violations = append(res.violations, verifyTranscripts(ctx, hc, replicaURL, ids, acks)...)
		if res.replicaDiskBytes, _, err = dirBytes(topo.replicaDir); err != nil {
			return nil, err
		}
	}
	for _, p := range topo.nodes() {
		mb, err := p.statusMB("VmHWM")
		if err != nil {
			return nil, err
		}
		if mb > res.peakRSSMB {
			res.peakRSSMB = mb
		}
	}
	if res.diskBytes, res.files, err = dirBytes(topo.primaryDir); err != nil {
		return nil, err
	}

	// Crash recovery: SIGKILL the primary, restart it on the same
	// directory and port, and wait until it serves every session — WAL
	// replay, not the snapshot a graceful close would have written.
	allThere := func(body []byte) bool {
		var rep server.HealthReport
		return json.Unmarshal(body, &rep) == nil && rep.Sessions == len(ids)
	}
	topo.primary.kill()
	t2 := h.clock.Now()
	primary, err := procs.start("primary", topo.primary.args, topo.primary.addr)
	if err != nil {
		return nil, err
	}
	if err := waitHealthy(ctx, h.clock, hc, primary, primaryURL+"/healthz", allThere); err != nil {
		return nil, err
	}
	res.recoveryS = (h.clock.Now() - t2).Seconds()
	res.violations = append(res.violations, verifyTranscripts(ctx, hc, primaryURL, ids, acks)...)
	if keepDir {
		res.dataDir = topo.primaryDir
	}

	// Set up again, on fresh data dirs, until setupBudget of set-up time
	// is spent: one spawn is mostly scheduler noise, the median of many
	// is what the program needs to set up. Of the repetition's servers
	// only the primary stays, idle, as the peer of the speed reference:
	// after each set-up, how long a GET /health round trip takes at
	// that moment.
	procs.killAllBut(primary)
	res.refUS = []float64{res.httpRoundtripUS}
	for spent := res.setups[0]; spent < h.setupBudget.Seconds(); {
		s, err := h.spawnCycle(ctx, w)
		if err != nil {
			return nil, err
		}
		// A tenth of the time the set-up took, so that the reference
		// of a set-up taken four times a repetition is no noisier than
		// that of one taken a hundred times.
		ref, err := roundTripUS(ctx, h.clock, hc, primaryURL+"/health", 20, time.Duration(s*float64(time.Second)/10))
		if err != nil {
			return nil, err
		}
		res.setups, res.refUS = append(res.setups, s), append(res.refUS, ref)
		spent += s
	}
	return res, nil
}

// roundTripUS is the median of GET round trips to url, in
// microseconds: at least n of them, and as many as fit in d.
func roundTripUS(ctx context.Context, clock resilience.Clock, hc *http.Client, url string, n int, d time.Duration) (float64, error) {
	var rt []float64
	for t0 := clock.Now(); len(rt) < n || clock.Now()-t0 < d; {
		t := clock.Now()
		if status, _, err := httpDo(ctx, hc, http.MethodGet, url, nil); err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("GET %s: status %d err %v", url, status, err)
		}
		rt = append(rt, float64(clock.Now()-t)/float64(time.Microsecond))
	}
	return percentile(rt, 50), nil
}

// replicaLag reads the replica's own view of how far it is behind,
// giving an in-flight ship a moment to land.
func replicaLag(ctx context.Context, clock resilience.Clock, hc *http.Client, node string) (int64, error) {
	var rep server.HealthReport
	for try := 0; ; try++ {
		status, raw, err := httpDo(ctx, hc, http.MethodGet, node+"/healthz", nil)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("replica /healthz: status %d err %v", status, err)
		}
		if err := json.Unmarshal(raw, &rep); err != nil {
			return 0, err
		}
		if rep.MaxLag == 0 || try == 50 {
			return rep.MaxLag, nil
		}
		if err := clock.Sleep(ctx, 10*time.Millisecond); err != nil {
			return 0, err
		}
	}
}
