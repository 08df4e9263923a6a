package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/core"
	"github.com/reliable-cda/cda/internal/sessionstore"
	"github.com/reliable-cda/cda/internal/workload"
)

// nodePair builds a primary and replica server over memory stores with
// the same shard count, named so staleness stamps are attributable.
func nodePair(t *testing.T) (primary, replica *httptest.Server, psrv, rsrv *Server) {
	t.Helper()
	d := workload.NewSwissDomain(1)
	sys := core.New(core.Config{DB: d.DB, Catalog: d.Catalog, KG: d.KG, Vocab: d.Vocab,
		Documents: d.Documents, Now: d.Now, Seed: 1})
	psrv = NewWithOptions(sys, d.Catalog, d.Now, Options{
		Store: sessionstore.NewMemory(sessionstore.Config{Shards: 4}), NodeName: "n1-primary"})
	rsrv = NewWithOptions(sys, d.Catalog, d.Now, Options{
		Store: sessionstore.NewMemory(sessionstore.Config{Shards: 4}), NodeName: "n1-replica"})
	primary = httptest.NewServer(psrv.Handler())
	replica = httptest.NewServer(rsrv.Handler())
	t.Cleanup(primary.Close)
	t.Cleanup(replica.Close)
	return primary, replica, psrv, rsrv
}

// shipShardHTTP pulls at most max frames of one shard from the primary
// over HTTP and applies them on the replica over HTTP — the exact
// protocol cdarouter drives.
func shipShardHTTP(t *testing.T, primary, replica *httptest.Server, rsrv *Server, shard, max int) {
	t.Helper()
	after := rsrv.Store().ReplicationCursor(shard)
	resp, err := http.Get(fmt.Sprintf("%s/replication/%d?after=%d&max=%d", primary.URL, shard, after, max))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("pull shard %d status = %d", shard, resp.StatusCode)
	}
	batch := decode[sessionstore.ShipBatch](t, resp)
	if batch.Empty() && batch.PrimaryCursor == after {
		return
	}
	resp = postJSON(t, replica.URL+"/replication/apply", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply shard %d status = %d", shard, resp.StatusCode)
	}
	resp.Body.Close()
}

func askOK(t *testing.T, ts *httptest.Server, id, q string) {
	t.Helper()
	resp := postJSON(t, ts.URL+"/sessions/"+id+"/ask", AskRequest{Question: q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask %q status = %d", q, resp.StatusCode)
	}
	resp.Body.Close()
}

func getPage(t *testing.T, ts *httptest.Server, id, query string) (TranscriptPage, http.Header) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/sessions/" + id + query)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("transcript %s status = %d", query, resp.StatusCode)
	}
	hdr := resp.Header
	return decode[TranscriptPage](t, resp), hdr
}

func TestHealthzReportsShardSeqAndLag(t *testing.T) {
	primary, replica, psrv, rsrv := nodePair(t)
	id := createSession(t, primary)
	askOK(t, primary, id, "how many barometer")

	resp, err := http.Get(primary.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	rep := decode[HealthReport](t, resp)
	if rep.Status != "ok" || rep.Node != "n1-primary" || rep.Sessions != 1 {
		t.Fatalf("healthz = %+v", rep)
	}
	if len(rep.Shards) != psrv.Store().Shards() {
		t.Fatalf("reported %d shards, want %d", len(rep.Shards), psrv.Store().Shards())
	}
	shard := psrv.Store().ShardIndex(id)
	// create + one committed pair = 2 WAL records on the session's shard.
	if rep.Shards[shard].WALSeq != 2 {
		t.Errorf("shard %d wal_seq = %d, want 2", shard, rep.Shards[shard].WALSeq)
	}
	if rep.MaxLag != 0 {
		t.Errorf("primary max_lag = %d, want 0", rep.MaxLag)
	}

	// Ship one of the two records: the replica's healthz shows lag 1.
	shipShardHTTP(t, primary, replica, rsrv, shard, 1)
	resp, err = http.Get(replica.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	rep = decode[HealthReport](t, resp)
	if rep.Node != "n1-replica" || rep.Shards[shard].Lag != 1 || rep.MaxLag != 1 {
		t.Fatalf("replica healthz = %+v", rep)
	}
}

func TestCreateSessionWithChosenID(t *testing.T) {
	ts := testServer(t)
	resp := postJSON(t, ts.URL+"/sessions", map[string]string{"id": "c000007"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	if got := decode[map[string]string](t, resp); got["id"] != "c000007" {
		t.Fatalf("id = %q", got["id"])
	}
	// The chosen id is live.
	askOK(t, ts, "c000007", "how many barometer")
	// Re-creating it is a conflict, not a silent reset.
	resp = postJSON(t, ts.URL+"/sessions", map[string]string{"id": "c000007"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create status = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	// The bodyless protocol still allocates.
	resp = postJSON(t, ts.URL+"/sessions", nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("bodyless create status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestTranscriptPageEdges pins the pagination contract at its
// boundaries: offset exactly at and past the end, a window straddling
// the final turn, and the hard limit clamp.
func TestTranscriptPageEdges(t *testing.T) {
	ts := testServer(t)
	id := createSession(t, ts)
	const asks = 6 // 12 turns
	for i := 0; i < asks; i++ {
		askOK(t, ts, id, "how many barometer")
	}
	total := 2 * asks

	// Offset exactly at the end: empty page, correct total.
	page, _ := getPage(t, ts, id, fmt.Sprintf("?offset=%d", total))
	if len(page.Turns) != 0 || page.Total != total || page.Offset != total {
		t.Errorf("at-end page = total %d offset %d turns %d", page.Total, page.Offset, len(page.Turns))
	}
	// Offset far past the end: still empty, still not an error.
	page, _ = getPage(t, ts, id, fmt.Sprintf("?offset=%d", total+500))
	if len(page.Turns) != 0 || page.Total != total {
		t.Errorf("past-end page = total %d turns %d", page.Total, len(page.Turns))
	}
	// A window straddling the final turn is truncated to it, and ends
	// on the system turn that closes the transcript.
	page, _ = getPage(t, ts, id, fmt.Sprintf("?offset=%d&limit=5", total-2))
	if len(page.Turns) != 2 {
		t.Fatalf("straddling window turns = %d, want 2", len(page.Turns))
	}
	if page.Turns[0].Role != "user" || page.Turns[1].Role != "system" {
		t.Errorf("final window roles = %q/%q", page.Turns[0].Role, page.Turns[1].Role)
	}
	// The limit clamp is exactly MaxPageLimit, echoed in the envelope.
	page, _ = getPage(t, ts, id, "?limit=1001")
	if page.Limit != MaxPageLimit {
		t.Errorf("limit = %d, want clamped to %d", page.Limit, MaxPageLimit)
	}
	page, _ = getPage(t, ts, id, fmt.Sprintf("?limit=%d", MaxPageLimit))
	if page.Limit != MaxPageLimit || len(page.Turns) != total {
		t.Errorf("at-clamp page = limit %d turns %d", page.Limit, len(page.Turns))
	}
	// A fresh page on a primary carries no staleness stamp.
	if page.Stale || page.Source != "" || page.LagRecords != 0 {
		t.Errorf("primary page stamped stale: %+v", page)
	}
}

// TestReplicaPaginationMidCatchUp reads a paginated transcript from a
// replica that has applied only part of the primary's WAL: the page is
// a consistent committed prefix, stamped stale with the known lag, and
// the stamp clears once shipping catches up.
func TestReplicaPaginationMidCatchUp(t *testing.T) {
	primary, replica, psrv, rsrv := nodePair(t)
	id := createSession(t, primary)
	const asks = 4 // create + 4 turn records on the shard
	for i := 0; i < asks; i++ {
		askOK(t, primary, id, "how many barometer")
	}
	shard := psrv.Store().ShardIndex(id)

	// Ship the create plus two of the four turn pairs.
	shipShardHTTP(t, primary, replica, rsrv, shard, 3)
	page, hdr := getPage(t, replica, id, "?offset=2&limit=2")
	if !page.Stale || page.Source != "n1-replica" || page.LagRecords != 2 {
		t.Fatalf("mid-catch-up page stamp = stale %v source %q lag %d",
			page.Stale, page.Source, page.LagRecords)
	}
	if hdr.Get("X-CDA-Stale") != "true" {
		t.Error("mid-catch-up read missing X-CDA-Stale header")
	}
	// The replica serves the committed prefix: 2 pairs = 4 turns total,
	// and the requested window is inside it.
	if page.Total != 4 || len(page.Turns) != 2 {
		t.Fatalf("mid-catch-up page = total %d turns %d, want 4/2", page.Total, len(page.Turns))
	}
	// A window past the replica's prefix (but inside the primary's
	// transcript) is empty on the replica — stale, not wrong.
	past, _ := getPage(t, replica, id, "?offset=6")
	if len(past.Turns) != 0 || past.Total != 4 || !past.Stale {
		t.Errorf("past-prefix page = total %d turns %d stale %v", past.Total, len(past.Turns), past.Stale)
	}

	// Catch up fully: the stamp clears and pages match the primary's.
	shipShardHTTP(t, primary, replica, rsrv, shard, 0)
	rp, _ := getPage(t, replica, id, "?offset=0&limit=100")
	if rp.Stale || rp.Source != "" || rp.LagRecords != 0 {
		t.Errorf("caught-up page still stamped: %+v", rp)
	}
	pp, _ := getPage(t, primary, id, "?offset=0&limit=100")
	if fmt.Sprintf("%+v", rp) != fmt.Sprintf("%+v", pp) {
		t.Errorf("caught-up replica page diverged:\nprimary: %+v\nreplica: %+v", pp, rp)
	}
}

// TestReplicationEndpointErrors pins the HTTP error mapping of the
// shipping endpoints: bad shard/cursor parameters are 400, a cursor
// ahead of the node is 409, and a gapped apply is 409 carrying the
// replica's actual cursor.
func TestReplicationEndpointErrors(t *testing.T) {
	primary, replica, psrv, rsrv := nodePair(t)
	id := createSession(t, primary)
	askOK(t, primary, id, "how many barometer")
	shard := psrv.Store().ShardIndex(id)

	for _, q := range []string{"/replication/99", "/replication/x", "/replication/0?after=-1", "/replication/0?max=x"} {
		resp, err := http.Get(primary.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", q, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(fmt.Sprintf("%s/replication/%d?after=999", primary.URL, shard))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("future-cursor pull status = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// Pull both records but apply only the second: the replica refuses
	// the gap with a plain 409, and the shipper re-learns its cursor (0)
	// from /healthz to restart correctly.
	resp, err = http.Get(fmt.Sprintf("%s/replication/%d?after=0&max=0", primary.URL, shard))
	if err != nil {
		t.Fatal(err)
	}
	batch := decode[sessionstore.ShipBatch](t, resp)
	if len(batch.Records) != 2 {
		t.Fatalf("pulled %d records, want 2", len(batch.Records))
	}
	batch.Records = batch.Records[1:]
	resp = postJSON(t, replica.URL+"/replication/apply", batch)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("gapped apply status = %d, want 409", resp.StatusCode)
	}
	body := decode[map[string]any](t, resp)
	if msg, _ := body["error"].(string); len(body) != 1 || !strings.Contains(msg, "replication gap") {
		t.Errorf("gap response body = %v, want an error naming the gap and nothing else", body)
	}
	resp, err = http.Get(replica.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if rep := decode[HealthReport](t, resp); rep.Shards[shard].WALSeq != 0 {
		t.Errorf("replica shard %d cursor after the refused apply = %d, want 0", shard, rep.Shards[shard].WALSeq)
	}
	_ = rsrv
}
