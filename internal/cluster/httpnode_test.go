package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestHTTPNodeBodyCutShortIsANodeFailure: a node that dies halfway
// through a 2xx body failed as a node, for an ask as for a health
// probe, so the breaker and Probe count it; a node that sent a whole
// body that is not JSON answered, wrongly, and is not counted.
func TestHTTPNodeBodyCutShortIsANodeFailure(t *testing.T) {
	ctx := context.Background()
	calls := []struct {
		name string
		call func(n *HTTPNode) error
	}{
		{"ask", func(n *HTTPNode) error { _, err := n.Ask(ctx, "s1", confQ); return err }},
		{"health", func(n *HTTPNode) error { _, err := n.Health(ctx); return err }},
	}
	bodies := []struct {
		name string
		cut  bool
	}{{"cut short", true}, {"whole but malformed", false}}
	for _, c := range calls {
		for _, b := range bodies {
			t.Run(c.name+"/"+b.name, func(t *testing.T) {
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(http.StatusOK)
					if _, err := w.Write([]byte(`{"text":"half an ans`)); err != nil {
						t.Error(err)
					}
					if b.cut {
						w.(http.Flusher).Flush()
						panic(http.ErrAbortHandler)
					}
				}))
				defer ts.Close()
				err := c.call(NewHTTPNode("n1", ts.URL, nil))
				if err == nil || errors.Is(err, ErrNodeDown) != b.cut {
					t.Fatalf("error = %v; want one that is ErrNodeDown: %v", err, b.cut)
				}
			})
		}
	}
}
