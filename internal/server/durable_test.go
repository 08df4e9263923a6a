package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/admission"
	"github.com/reliable-cda/cda/internal/core"
	"github.com/reliable-cda/cda/internal/framelog"
	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/sessionstore"
	"github.com/reliable-cda/cda/internal/vstore"
	"github.com/reliable-cda/cda/internal/workload"
)

// durableServer builds a server over a durable store in dir with the
// given options applied.
func durableServer(t *testing.T, dir string, storeCfg sessionstore.Config, adm *admission.Controller) (*httptest.Server, *Server) {
	t.Helper()
	d := workload.NewSwissDomain(1)
	sys := core.New(core.Config{DB: d.DB, Catalog: d.Catalog, KG: d.KG, Vocab: d.Vocab,
		Documents: d.Documents, Now: d.Now, Seed: 1})
	storeCfg.Dir = dir
	st, err := sessionstore.Open(storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(sys, d.Catalog, d.Now, Options{Store: st, Admission: adm})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func rawTranscript(t *testing.T, ts *httptest.Server, id, query string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/sessions/" + id + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestSessionSurvivesRestart is the acceptance scenario: a server is
// killed after N committed turns (no Close, no flush) and a restarted
// server over the same data dir serves the byte-identical transcript
// for the same session id.
func TestSessionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ts1, _ := durableServer(t, dir, sessionstore.Config{Shards: 4}, nil)
	id := createSession(t, ts1)
	questions := []string{
		"how many employment where canton is Zurich",
		"and in Bern?",
		"how many barometer",
	}
	for _, q := range questions {
		resp := postJSON(t, ts1.URL+"/sessions/"+id+"/ask", AskRequest{Question: q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ask %q status = %d", q, resp.StatusCode)
		}
		resp.Body.Close()
	}
	code, before := rawTranscript(t, ts1, id, "")
	if code != http.StatusOK {
		t.Fatalf("transcript status = %d", code)
	}
	ts1.Close() // simulated kill: the store is never Closed or flushed

	ts2, _ := durableServer(t, dir, sessionstore.Config{Shards: 4}, nil)
	code, after := rawTranscript(t, ts2, id, "")
	if code != http.StatusOK {
		t.Fatalf("restarted transcript status = %d", code)
	}
	if after != before {
		t.Errorf("transcript changed across restart:\nbefore: %s\nafter:  %s", before, after)
	}
	// The recovered session is live: conversation context from before
	// the crash (the committed transcript) keeps serving asks.
	resp := postJSON(t, ts2.URL+"/sessions/"+id+"/ask",
		AskRequest{Question: "how many employment"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart ask status = %d", resp.StatusCode)
	}
	ans := decode[AskResponse](t, resp)
	if ans.Text == "" {
		t.Error("post-restart ask returned empty answer")
	}
}

func TestTranscriptPagination(t *testing.T) {
	ts := testServer(t)
	id := createSession(t, ts)
	const asks = 6
	for i := 0; i < asks; i++ {
		postJSON(t, ts.URL+"/sessions/"+id+"/ask",
			AskRequest{Question: "how many barometer"}).Body.Close()
	}
	resp, err := http.Get(ts.URL + "/sessions/" + id + "?offset=2&limit=3")
	if err != nil {
		t.Fatal(err)
	}
	page := decode[TranscriptPage](t, resp)
	if page.Total != 2*asks || page.Offset != 2 || page.Limit != 3 || len(page.Turns) != 3 {
		t.Fatalf("page = total %d offset %d limit %d turns %d",
			page.Total, page.Offset, page.Limit, len(page.Turns))
	}
	// offset=2 of a user/system alternation starts on a user turn.
	if page.Turns[0].Role != "user" || page.Turns[1].Role != "system" {
		t.Errorf("window roles = %q/%q", page.Turns[0].Role, page.Turns[1].Role)
	}
	// A window past the end is empty, not an error (stable iteration
	// for clients paging until exhaustion).
	resp, err = http.Get(ts.URL + "/sessions/" + id + "?offset=1000")
	if err != nil {
		t.Fatal(err)
	}
	page = decode[TranscriptPage](t, resp)
	if len(page.Turns) != 0 || page.Total != 2*asks {
		t.Errorf("past-end page = %+v", page)
	}
	// Malformed parameters are client errors.
	for _, q := range []string{"?offset=-1", "?limit=0", "?offset=x", "?limit=x"} {
		code, _ := rawTranscript(t, ts, id, q)
		if code != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", q, code)
		}
	}
	// An oversized limit is clamped, not rejected.
	resp, err = http.Get(ts.URL + "/sessions/" + id + "?limit=99999")
	if err != nil {
		t.Fatal(err)
	}
	if page = decode[TranscriptPage](t, resp); page.Limit != MaxPageLimit {
		t.Errorf("limit = %d, want clamped to %d", page.Limit, MaxPageLimit)
	}
}

// TestEvictedSessionGone drives TTL eviction on the virtual clock:
// idle sessions answer 410 Gone (not 404) on both ask and transcript,
// and the distinction survives restart via tombstones.
func TestEvictedSessionGone(t *testing.T) {
	dir := t.TempDir()
	clock := resilience.NewVirtualClock()
	cfg := sessionstore.Config{Shards: 2, TTL: 30 * time.Minute, Clock: clock}
	ts, _ := durableServer(t, dir, cfg, nil)
	id := createSession(t, ts)
	postJSON(t, ts.URL+"/sessions/"+id+"/ask",
		AskRequest{Question: "how many barometer"}).Body.Close()
	clock.Advance(31 * time.Minute)
	resp := postJSON(t, ts.URL+"/sessions/"+id+"/ask", AskRequest{Question: "how many barometer"})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("ask on idle session status = %d, want 410", resp.StatusCode)
	}
	resp.Body.Close()
	if code, _ := rawTranscript(t, ts, id, ""); code != http.StatusGone {
		t.Errorf("transcript of evicted session status = %d, want 410", code)
	}
	// Never-issued ids stay 404.
	if code, _ := rawTranscript(t, ts, "s9999", ""); code != http.StatusNotFound {
		t.Errorf("unknown session status = %d, want 404", code)
	}
	ts.Close()
	ts2, _ := durableServer(t, dir, cfg, nil)
	if code, _ := rawTranscript(t, ts2, id, ""); code != http.StatusGone {
		t.Errorf("evicted session after restart status = %d, want 410 (tombstone lost?)", code)
	}
}

// TestOverloadSheds verifies the admission contract: with a shard's
// only inflight slot occupied, new asks shed with 429 + Retry-After
// before any work, while the already-admitted request completes.
func TestOverloadSheds(t *testing.T) {
	adm := admission.New(admission.Config{Shards: 4, MaxInflight: 1})
	ts, srv := durableServer(t, t.TempDir(), sessionstore.Config{Shards: 4}, adm)
	id := createSession(t, ts)
	shard := srv.Store().ShardIndex(id)
	// Occupy the shard's only slot, as an admitted long-running turn
	// would.
	release, err := adm.Admit(shard)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/sessions/"+id+"/ask",
		AskRequest{Question: "how many barometer"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("ask under full shard status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 missing Retry-After header")
	}
	resp.Body.Close()
	// The admitted work finishes and releases; traffic flows again.
	release()
	resp = postJSON(t, ts.URL+"/sessions/"+id+"/ask",
		AskRequest{Question: "how many barometer"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask after release status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// The shed request committed nothing: exactly one turn pair.
	_, body := rawTranscript(t, ts, id, "")
	if got := strings.Count(body, `"role":"user"`); got != 1 {
		t.Errorf("transcript holds %d user turns, want 1 (shed request leaked a turn?)\n%s", got, body)
	}
}

// TestRateLimitSheds drives the token bucket deterministically on the
// virtual clock: budget exhausted → 429 with an exact Retry-After;
// clock advance → admitted again.
func TestRateLimitSheds(t *testing.T) {
	clock := resilience.NewVirtualClock()
	adm := admission.New(admission.Config{Shards: 1, Rate: 1, Burst: 1, Clock: clock})
	ts, _ := durableServer(t, t.TempDir(), sessionstore.Config{Shards: 1}, adm)
	id := createSession(t, ts)
	ask := func() *http.Response {
		return postJSON(t, ts.URL+"/sessions/"+id+"/ask",
			AskRequest{Question: "how many barometer"})
	}
	resp := ask()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first ask status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = ask()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget ask status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\" (rate 1/s)", ra)
	}
	resp.Body.Close()
	clock.Advance(time.Second)
	resp = ask()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask after refill status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestConcurrentLifecycleAcrossShards exercises the whole lifecycle —
// create, ask, evict, recover — from parallel clients across shards
// under the race detector, then restarts and checks every surviving
// transcript.
func TestConcurrentLifecycleAcrossShards(t *testing.T) {
	dir := t.TempDir()
	clock := resilience.NewVirtualClock()
	cfg := sessionstore.Config{Shards: 8, SnapshotEvery: 4, TTL: time.Hour, Clock: clock}
	ts, srv := durableServer(t, dir, cfg, admission.New(admission.Config{Shards: 8, MaxInflight: 64}))
	const workers = 6
	ids := make([]string, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := createSession(t, ts)
			ids[g] = id
			for i := 0; i < 3; i++ {
				resp := postJSON(t, ts.URL+"/sessions/"+id+"/ask",
					AskRequest{Question: "how many barometer"})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("worker %d ask status = %d", g, resp.StatusCode)
				}
				resp.Body.Close()
				if _, err := srv.Store().SweepIdle(); err != nil {
					t.Errorf("worker %d sweep: %v", g, err)
				}
			}
		}(g)
	}
	wg.Wait()
	transcripts := make([]string, workers)
	for g, id := range ids {
		code, body := rawTranscript(t, ts, id, "")
		if code != http.StatusOK {
			t.Fatalf("session %s transcript status = %d", id, code)
		}
		transcripts[g] = body
	}
	ts.Close()
	ts2, _ := durableServer(t, dir, cfg, nil)
	for g, id := range ids {
		code, body := rawTranscript(t, ts2, id, "")
		if code != http.StatusOK {
			t.Fatalf("recovered session %s status = %d", id, code)
		}
		if body != transcripts[g] {
			t.Errorf("session %s transcript diverged across restart:\nbefore: %s\nafter:  %s",
				id, transcripts[g], body)
		}
	}
	// Drive everything idle and evict: all sessions answer 410.
	clock.Advance(2 * time.Hour)
	for _, id := range ids {
		if code, _ := rawTranscript(t, ts2, id, ""); code != http.StatusGone {
			t.Errorf("idle session %s status = %d, want 410", id, code)
		}
	}
}

// TestCreateSessionIDsMonotonicAcrossRestart pins the id allocator:
// a recovered server continues the sequence instead of re-issuing
// (and instantly tombstone-410ing) old ids.
func TestCreateSessionIDsMonotonicAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ts1, _ := durableServer(t, dir, sessionstore.Config{Shards: 4}, nil)
	first := createSession(t, ts1)
	second := createSession(t, ts1)
	ts1.Close()
	ts2, _ := durableServer(t, dir, sessionstore.Config{Shards: 4}, nil)
	third := createSession(t, ts2)
	if third == first || third == second {
		t.Fatalf("restarted server re-issued id %s (have %s, %s)", third, first, second)
	}
	for i := 0; i < 5; i++ {
		if id := createSession(t, ts2); id == first || id == second {
			t.Fatalf("duplicate id %s after restart", id)
		}
	}
}

// TestCorruptVersionChunkIsA500 flips one byte of a version's chunk in
// the journal under the running node: a byte of the question inside the
// session's turns chunk, which leaves the turn well-formed, or a byte of
// the session node inside the commit record that carries it. The as-of
// read that needs the chunk fails — in the session store with an error
// naming the chunk, over HTTP as a logged 500 — and never serves the
// altered transcript; a version that exists but cannot be read is not a
// 404.
func TestCorruptVersionChunkIsA500(t *testing.T) {
	// Each row finds the byte to flip among the journal's payloads and
	// the chunk that holds it: the index of the payload, the byte's place
	// in it, and the chunk's address.
	for _, row := range []struct {
		name string
		find func(payloads [][]byte) (frame, at int, victim string)
	}{
		{"turns chunk", func(payloads [][]byte) (int, int, string) {
			for i, p := range payloads {
				if at := bytes.Index(p, []byte("Zurich")); at >= 0 && bytes.HasPrefix(p, []byte("\x01\x05turns")) {
					sum := sha256.Sum256(p)
					return i, at, hex.EncodeToString(sum[:])
				}
			}
			return -1, 0, ""
		}},
		{"session node in its commit record", func(payloads [][]byte) (int, int, string) {
			// The last: the first is the creation's, the empty node at turn 0.
			for i := len(payloads) - 1; i >= 0; i-- {
				p := payloads[i]
				// 0x04, the root name behind its length, the turn, and the
				// node's chunk bytes: the rest of the payload.
				if at := bytes.Index(p, []byte("\x01\x04sess")); at >= 0 && p[0] == 0x04 {
					sum := sha256.Sum256(p[at:])
					return i, len(p) - 1, hex.EncodeToString(sum[:])
				}
			}
			return -1, 0, ""
		}},
	} {
		t.Run(row.name, func(t *testing.T) { testCorruptVersionChunkIsA500(t, row.find) })
	}
}

func testCorruptVersionChunkIsA500(t *testing.T, find func(payloads [][]byte) (frame, at int, victim string)) {
	dir := t.TempDir()
	vs, err := vstore.Open(vstore.Config{Dir: filepath.Join(dir, "vstore")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := vs.Close(); err != nil {
			t.Errorf("close version store: %v", err)
		}
	})
	ts, srv := durableServer(t, dir, sessionstore.Config{Shards: 1, Versions: vs}, nil)
	id := createSession(t, ts)
	askOK(t, ts, id, "how many employment where canton is Zurich")
	asOf := ts.URL + "/sessions/" + id + "/asof/2"
	resp, err := http.Get(asOf)
	if err != nil {
		t.Fatal(err)
	}
	if got := decode[AsOfResponse](t, resp); resp.StatusCode != http.StatusOK || got.Total != 2 {
		t.Fatalf("as-of read before the damage: status %d, %d turns", resp.StatusCode, got.Total)
	}

	pack := filepath.Join(dir, "vstore", "chunks.pack")
	raw, err := os.ReadFile(pack)
	if err != nil {
		t.Fatal(err)
	}
	payloads, _ := framelog.Scan(0xC6, raw)
	frame, at, victim := find(payloads)
	if frame < 0 {
		t.Fatal("no frame holding the chunk in the journal")
	}
	off := int64(framelog.HeaderSize + at)
	for _, p := range payloads[:frame] {
		off += int64(framelog.HeaderSize + len(p))
	}
	f, err := os.OpenFile(pack, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{b[0] ^ 0x20}, off); err != nil { // "zurich" in a turns chunk
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if sess, _, err := srv.Store().TranscriptAsOf(id, 2); err == nil || !strings.Contains(err.Error(), victim) {
		t.Fatalf("TranscriptAsOf over a corrupt chunk = %v, %v; want an error naming chunk %s", sess, err, victim)
	}
	resp, err = http.Get(asOf)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || strings.Contains(string(body), "urich") || strings.Contains(string(body), victim) {
		t.Fatalf("as-of read over a corrupt chunk: status %d, body %s; want a 500 that leaks neither data nor detail", resp.StatusCode, body)
	}
	// What the client could ask for and is not there stays a 404, and
	// the creation's version, which the damage does not touch, reads.
	resp, err = http.Get(ts.URL + "/sessions/never-issued/asof/2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET an as-of read of a session never issued = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/sessions/" + id + "/asof/1")
	if err != nil {
		t.Fatal(err)
	}
	if got := decode[AsOfResponse](t, resp); resp.StatusCode != http.StatusOK || got.Total != 0 {
		t.Errorf("as-of read of turn 1: status %d, %d turns; want the creation's empty transcript", resp.StatusCode, got.Total)
	}
	// The live transcript does not go through the journal.
	if code, _ := rawTranscript(t, ts, id, ""); code != http.StatusOK {
		t.Errorf("live transcript status = %d", code)
	}
}

// failCommit is a version-store fault hook that refuses the n-th
// version commit, killing nothing.
type failCommit struct{ n, seen int }

var errRefusedCommit = errors.New("failCommit: refused")

func (f *failCommit) Inject(op string) error {
	if op != "vstore.commit" {
		return nil
	}
	f.seen++
	if f.seen == f.n {
		return errRefusedCommit
	}
	return nil
}

// TestVersionFailureIsLoggedAtTheTurn: when a shard cannot commit its
// root's version — the compaction due at the fourth record refused by
// the version store — the turn that ran into it is still answered, byte
// for byte as a healthy node answers it, and the failure is logged under
// a request reference then, once, not at shutdown; the next turn's
// compaction lands. A session's version is its turn: when that one is
// refused, the ask is a 500 naming only a reference, the transcript holds
// what was acknowledged, and the ask repeated is answered.
func TestVersionFailureIsLoggedAtTheTurn(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	questions := []string{
		"how many employment where canton is Zurich",
		"and in Bern?",
		"how many barometer",
		"what is the average employment by canton",
	}
	open := func(faults vstore.FaultHook) (*httptest.Server, *Server, string) {
		dir := t.TempDir()
		vs, err := vstore.Open(vstore.Config{Dir: filepath.Join(dir, "vstore"), Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := vs.Close(); err != nil {
				t.Errorf("close version store: %v", err)
			}
		})
		ts, srv := durableServer(t, dir, sessionstore.Config{Shards: 1, SnapshotEvery: 4, Versions: vs}, nil)
		return ts, srv, createSession(t, ts)
	}
	ask := func(ts *httptest.Server, id, q string) (int, string) {
		resp := postJSON(t, ts.URL+"/sessions/"+id+"/ask", AskRequest{Question: q})
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	run := func(faults vstore.FaultHook) (answers []string, st *sessionstore.Store) {
		ts, srv, id := open(faults)
		for _, q := range questions {
			if code, body := ask(ts, id, q); code != http.StatusOK {
				t.Fatalf("ask %q: status %d: %s", q, code, body)
			} else {
				answers = append(answers, body)
			}
		}
		_, transcript := rawTranscript(t, ts, id, "")
		return append(answers, transcript), srv.Store()
	}
	healthy, _ := run(nil)
	if logged.Len() != 0 {
		t.Fatalf("a healthy node logged:\n%s", logged.String())
	}
	// Commits: the creation, then one per ask; the fifth is the
	// compaction the third ask sets off, and the fourth ask's lands.
	failing, st := run(&failCommit{n: 5})
	if !reflect.DeepEqual(failing, healthy) {
		t.Fatalf("responses differ from a healthy node's:\n got: %q\nwant: %q", failing, healthy)
	}
	lines := strings.Split(strings.TrimSpace(logged.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "compact shard 0") || !strings.Contains(lines[0], errRefusedCommit.Error()) || !strings.Contains(lines[0], "[req-") {
		t.Fatalf("logged %d lines, want one naming the refused compaction and a request reference:\n%s", len(lines), logged.String())
	}
	if err := st.DeferredError(0); err != nil {
		t.Errorf("a failure was left unreported: %v", err)
	}
	if head, err := st.Versions().Head(sessionstore.ShardRoot(0)); err != nil || head.Turn != 5 {
		t.Errorf("shard root head = %+v, %v; want the compaction the fourth ask retried, at horizon 5", head, err)
	}

	logged.Reset()
	ts, _, id := open(&failCommit{n: 3}) // the second ask's
	if code, _ := ask(ts, id, questions[0]); code != http.StatusOK {
		t.Fatalf("first ask: status %d", code)
	}
	code, body := ask(ts, id, questions[1])
	if code != http.StatusInternalServerError || !strings.Contains(body, "reference req-") || strings.Contains(body, errRefusedCommit.Error()) {
		t.Fatalf("an ask whose version is refused = %d %s; want a 500 naming a reference and nothing else", code, body)
	}
	if !strings.Contains(logged.String(), errRefusedCommit.Error()) {
		t.Errorf("the refused turn was not logged: %q", logged.String())
	}
	if code, page := rawTranscript(t, ts, id, ""); code != http.StatusOK || strings.Count(page, `"role"`) != 2 {
		t.Fatalf("transcript after the refused turn = %d %s; want the first pair alone", code, page)
	}
	if code, body := ask(ts, id, questions[1]); code != http.StatusOK {
		t.Fatalf("the refused ask repeated: status %d: %s", code, body)
	}
}
