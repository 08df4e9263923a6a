package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/reliable-cda/cda/internal/core"
	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/vstore"
	"github.com/reliable-cda/cda/internal/workload"
)

// swissSystem builds the seed-1 Swiss system over vs (nil: unversioned)
// and serves it.
func swissSystem(t *testing.T, vs *vstore.Store) (*core.System, *httptest.Server) {
	t.Helper()
	d := workload.NewSwissDomain(1)
	sys := core.New(core.Config{DB: d.DB, Catalog: d.Catalog, KG: d.KG, Vocab: d.Vocab, Documents: d.Documents,
		Now: d.Now, Seed: 1, Versions: vs})
	ts := httptest.NewServer(NewWithOptions(sys, d.Catalog, d.Now, Options{}).Handler())
	t.Cleanup(ts.Close)
	return sys, ts
}

// stamps asks one verified question of sys directly and one over the
// wire, and returns the answer's DataRoot, its provenance answer node's
// data_root meta, and the ask response's data_root JSON field with
// whether the body has one.
func stamps(t *testing.T, sys *core.System, ts *httptest.Server) (answer, meta, wire string, onWire bool) {
	t.Helper()
	const q = "how many employment where canton is Zurich"
	ans, err := sys.Respond(context.Background(), dialogue.NewSession(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Abstained || ans.Degraded != "" || ans.Provenance == nil {
		t.Fatalf("set-up: %q is not a verified answer: %+v", q, ans)
	}
	node, ok := ans.Provenance.Node(ans.AnswerNode)
	if !ok {
		t.Fatalf("the answer node %q is not in its provenance", ans.AnswerNode)
	}
	resp := postJSON(t, ts.URL+"/sessions/"+createSession(t, ts)+"/ask", AskRequest{Question: q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask status = %d", resp.StatusCode)
	}
	body := decode[map[string]any](t, resp)
	wire, _ = body["data_root"].(string)
	_, onWire = body["data_root"]
	return ans.DataRoot, node.Meta["data_root"], wire, onWire
}

// TestAnswersCarryTheDataRoot: after CommitData(0), as a node runs it at
// start-up, a verified answer's DataRoot, its provenance answer node's
// data_root and the ask response's data_root all name the data root's
// head commit; two systems built apart from the same seed commit the
// same hash; and a system with no version store stamps nothing.
func TestAnswersCarryTheDataRoot(t *testing.T) {
	var heads []vstore.Hash
	for range 2 {
		vs := vstore.NewMemory()
		sys, ts := swissSystem(t, vs)
		c, err := sys.CommitData(0)
		if err != nil {
			t.Fatal(err)
		}
		head, err := vs.Head(core.DefaultDataRoot)
		if err != nil || head.Hash != c.Hash {
			t.Fatalf("head %+v, %v; CommitData returned %s", head, err, c.Hash)
		}
		want := string(head.Hash)
		if answer, meta, wire, _ := stamps(t, sys, ts); answer != want || meta != want || wire != want {
			t.Errorf("answer stamped %q, provenance %q, response %q; want the head commit %s", answer, meta, wire, want)
		}
		heads = append(heads, head.Hash)
	}
	if heads[0] != heads[1] {
		t.Errorf("two seed-1 systems committed data roots %s and %s", heads[0], heads[1])
	}

	sys, ts := swissSystem(t, nil)
	if answer, meta, _, onWire := stamps(t, sys, ts); answer != "" || meta != "" || onWire {
		t.Errorf("an unversioned system stamped answer %q, provenance %q, a data_root in the response: %v", answer, meta, onWire)
	}
}
