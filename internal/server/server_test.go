package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/core"
	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/workload"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	d := workload.NewSwissDomain(1)
	sys := core.New(core.Config{DB: d.DB, Catalog: d.Catalog, KG: d.KG, Vocab: d.Vocab, Documents: d.Documents, Now: d.Now, Seed: 1})
	srv := NewWithOptions(sys, d.Catalog, d.Now, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func createSession(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp := postJSON(t, ts.URL+"/sessions", nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	return decode[map[string]string](t, resp)["id"]
}

func TestHealth(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if got := decode[map[string]string](t, resp); got["status"] != "ok" {
		t.Errorf("body = %v", got)
	}
}

func TestDatasets(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	got := decode[[]DatasetInfo](t, resp)
	if len(got) != 3 {
		t.Fatalf("datasets = %v", got)
	}
	byID := map[string]DatasetInfo{}
	for _, d := range got {
		byID[d.ID] = d
	}
	if byID["barometer"].Freshness != 1 || byID["barometer"].Rotted {
		t.Errorf("barometer = %+v", byID["barometer"])
	}
	if byID["chocolate"].Freshness >= byID["employment"].Freshness {
		t.Error("freshness ordering wrong")
	}
}

func TestAskFlow(t *testing.T) {
	ts := testServer(t)
	id := createSession(t, ts)

	resp := postJSON(t, ts.URL+"/sessions/"+id+"/ask",
		AskRequest{Question: "how many employment where canton is Zurich"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask status = %d", resp.StatusCode)
	}
	ans := decode[AskResponse](t, resp)
	if ans.Abstained || !strings.Contains(ans.Text, "20") {
		t.Errorf("answer = %+v", ans)
	}
	if ans.Confidence < 0.5 || len(ans.Sources) == 0 || ans.Code == "" {
		t.Errorf("annotations missing: %+v", ans)
	}
	if !strings.Contains(ans.Provenance, "generated SQL") {
		t.Errorf("provenance = %q", ans.Provenance)
	}

	// Context carries across HTTP turns.
	resp = postJSON(t, ts.URL+"/sessions/"+id+"/ask", AskRequest{Question: "and in Bern?"})
	follow := decode[AskResponse](t, resp)
	if follow.Abstained || !strings.Contains(follow.Code, "Bern") {
		t.Errorf("follow-up = %+v", follow)
	}
}

func TestAskErrors(t *testing.T) {
	ts := testServer(t)
	resp := postJSON(t, ts.URL+"/sessions/nope/ask", AskRequest{Question: "hi"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	id := createSession(t, ts)
	resp = postJSON(t, ts.URL+"/sessions/"+id+"/ask", AskRequest{Question: "  "})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty question status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	r, _ := http.Post(ts.URL+"/sessions/"+id+"/ask", "application/json", strings.NewReader("{broken"))
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("broken json status = %d", r.StatusCode)
	}
	r.Body.Close()
}

func TestTranscript(t *testing.T) {
	ts := testServer(t)
	id := createSession(t, ts)
	postJSON(t, ts.URL+"/sessions/"+id+"/ask", AskRequest{Question: "how many barometer"}).Body.Close()
	resp, err := http.Get(ts.URL + "/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	page := decode[TranscriptPage](t, resp)
	turns := page.Turns
	if page.Total != 2 || len(turns) != 2 || turns[0].Role != "user" || turns[1].Role != "system" {
		t.Fatalf("page = %+v", page)
	}
	if page.Offset != 0 || page.Limit != DefaultPageLimit {
		t.Errorf("default pagination = offset %d limit %d", page.Offset, page.Limit)
	}
	if turns[0].Intent != "query" {
		t.Errorf("intent = %q", turns[0].Intent)
	}
	// Unknown session transcript.
	r2, _ := http.Get(ts.URL + "/sessions/zzz")
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown transcript status = %d", r2.StatusCode)
	}
	r2.Body.Close()
}

// TestTranscriptDoesNotWaitForATurn: a page read returns while another
// goroutine holds the session's turn lock, and reads only the turns the
// session has committed.
func TestTranscriptDoesNotWaitForATurn(t *testing.T) {
	d := workload.NewSwissDomain(1)
	sys := core.New(core.Config{DB: d.DB, Catalog: d.Catalog, KG: d.KG, Vocab: d.Vocab, Documents: d.Documents, Now: d.Now, Seed: 1})
	srv := NewWithOptions(sys, d.Catalog, d.Now, Options{})
	ctx := context.Background()
	id, err := srv.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Ask(ctx, id, "how many barometer"); err != nil {
		t.Fatal(err)
	}
	entry, _ := srv.Store().Get(id)
	held, release, turnDone := make(chan struct{}), make(chan struct{}), make(chan error)
	go func() {
		turnDone <- entry.Do(func(sess *dialogue.Session) error {
			sess.CommitTurn("how many employment", dialogue.IntentQuery, "not committed yet", 0.5)
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	defer func() {
		close(release)
		if err := <-turnDone; err != nil {
			t.Error(err)
		}
	}()
	type result struct {
		page TranscriptPage
		err  error
	}
	read := make(chan result, 1)
	go func() {
		page, err := srv.Transcript(ctx, id, 0, 100, false)
		read <- result{page, err}
	}()
	select {
	case r := <-read:
		if r.err != nil || r.page.Total != 2 || len(r.page.Turns) != 2 {
			t.Errorf("page read during a turn = %+v, %v; want the 2 committed turns", r.page, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a page read waited behind the session's turn")
	}
}

func TestSessionsAreIsolated(t *testing.T) {
	ts := testServer(t)
	a := createSession(t, ts)
	b := createSession(t, ts)
	if a == b {
		t.Fatal("duplicate session ids")
	}
	postJSON(t, ts.URL+"/sessions/"+a+"/ask",
		AskRequest{Question: "how many employment where canton is Zurich"}).Body.Close()
	// Session b has no context: a bare follow-up must clarify.
	resp := postJSON(t, ts.URL+"/sessions/"+b+"/ask", AskRequest{Question: "and in Bern?"})
	ans := decode[AskResponse](t, resp)
	if !ans.Abstained {
		t.Errorf("cross-session context leak: %+v", ans)
	}
}

func TestConcurrentAsk(t *testing.T) {
	ts := testServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := createSession(t, ts)
			for i := 0; i < 5; i++ {
				resp := postJSON(t, ts.URL+"/sessions/"+id+"/ask",
					AskRequest{Question: "how many barometer"})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status = %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentAskOneSession hammers a single session from many
// goroutines. The server serializes turns per session, so the final
// transcript must hold exactly one user and one system turn per
// request, strictly alternating — no torn or interleaved turns.
func TestConcurrentAskOneSession(t *testing.T) {
	ts := testServer(t)
	id := createSession(t, ts)
	const asks = 24
	questions := []string{
		"how many barometer",
		"how many employment",
		"how many employment where canton is Zurich",
	}
	var wg sync.WaitGroup
	for i := 0; i < asks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/sessions/"+id+"/ask",
				AskRequest{Question: questions[i%len(questions)]})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d", resp.StatusCode)
			}
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	resp, err := http.Get(ts.URL + "/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	turns := decode[TranscriptPage](t, resp).Turns
	if len(turns) != 2*asks {
		t.Fatalf("transcript has %d turns, want %d", len(turns), 2*asks)
	}
	for i, turn := range turns {
		want := "user"
		if i%2 == 1 {
			want = "system"
		}
		if turn.Role != want {
			t.Fatalf("turn %d role = %q, want %q", i, turn.Role, want)
		}
		if turn.Text == "" {
			t.Fatalf("turn %d has empty text", i)
		}
	}
}

// TestConcurrentAskManySessions runs several sessions concurrently,
// each asking a mixed question stream (hitting the singleflight
// answer cache on shared questions), and checks every transcript is
// internally consistent afterwards.
func TestConcurrentAskManySessions(t *testing.T) {
	ts := testServer(t)
	const sessions = 6
	const asksPer = 4
	questions := []string{
		"how many barometer",
		"how many employment",
		"how many employment where canton is Zurich",
		"what data do you have about jobs",
	}
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = createSession(t, ts)
	}
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < asksPer; i++ {
				resp := postJSON(t, ts.URL+"/sessions/"+ids[g]+"/ask",
					AskRequest{Question: questions[(g+i)%len(questions)]})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("session %d status = %d", g, resp.StatusCode)
				}
				ans := decode[AskResponse](t, resp)
				if ans.Text == "" {
					t.Errorf("session %d got empty answer", g)
				}
			}
		}(g)
	}
	wg.Wait()
	for g, id := range ids {
		resp, err := http.Get(ts.URL + "/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		turns := decode[TranscriptPage](t, resp).Turns
		if len(turns) != 2*asksPer {
			t.Fatalf("session %d transcript has %d turns, want %d", g, len(turns), 2*asksPer)
		}
		for i := 0; i < len(turns); i += 2 {
			if turns[i].Role != "user" || turns[i+1].Role != "system" {
				t.Fatalf("session %d turns %d/%d roles = %q/%q", g, i, i+1, turns[i].Role, turns[i+1].Role)
			}
		}
	}
}
