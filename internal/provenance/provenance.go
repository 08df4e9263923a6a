// Package provenance implements the answer-annotation data model the
// paper's P3 (Explainability) and P4 (Soundness by provenance)
// require: a DAG whose nodes are data sources, queries, computations,
// and answer claims, with derivation edges pointing from results to
// the things they were derived from.
//
// Two formal properties from the paper are checkable on any graph:
//
//   - Losslessness: every answer/claim node is transitively connected
//     to at least one source node, so the explanation really does
//     cover the calculations and source data behind the answer.
//   - Invertibility: every computation node records enough metadata
//     (the query text or code snippet) to recover the individual
//     calculation from the explanation.
package provenance

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind classifies provenance nodes.
type Kind int

// Node kinds.
const (
	KindSource Kind = iota
	KindQuery
	KindComputation
	KindAnswer
	KindClaim
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindQuery:
		return "query"
	case KindComputation:
		return "computation"
	case KindAnswer:
		return "answer"
	case KindClaim:
		return "claim"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is one provenance vertex. Meta holds machine-readable details:
// computations store "code" or "query"; sources store "uri" or
// "dataset"; claims store "text".
type Node struct {
	ID    string
	Kind  Kind
	Label string
	Meta  map[string]string
}

// ErrCycle is returned when an edge would create a cycle.
var ErrCycle = errors.New("provenance: edge would create a cycle")

// ErrUnknownNode is returned when referencing an absent node.
var ErrUnknownNode = errors.New("provenance: unknown node")

// Graph is a provenance DAG. Edges point from a derived node to the
// node it was derived from ("where-from" direction). Safe for
// concurrent use.
type Graph struct {
	mu    sync.RWMutex
	nodes map[string]*Node
	// derivedFrom[id] = ids this node was derived from (parents).
	derivedFrom map[string][]string
	// derives[id] = ids derived from this node (children).
	derives map[string][]string
	seq     int
}

// NewGraph creates an empty graph.
func NewGraph() *Graph {
	return &Graph{
		nodes:       make(map[string]*Node),
		derivedFrom: make(map[string][]string),
		derives:     make(map[string][]string),
	}
}

// AddNode inserts a node; with an empty ID one is generated
// ("<kind>:<n>"). Returns the node's ID. Re-adding an existing ID
// replaces its label/meta but keeps edges.
func (g *Graph) AddNode(n Node) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n.ID == "" {
		g.seq++
		n.ID = fmt.Sprintf("%s:%d", n.Kind, g.seq)
	}
	copied := n
	if n.Meta != nil {
		copied.Meta = make(map[string]string, len(n.Meta))
		for k, v := range n.Meta {
			copied.Meta[k] = v
		}
	}
	g.nodes[n.ID] = &copied
	return n.ID
}

// Node returns a copy of the node with the given ID.
func (g *Graph) Node(id string) (Node, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	if !ok {
		return Node{}, false
	}
	return *n, true
}

// Len returns the number of nodes.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// DerivedFrom records that `result` was derived from `origin`.
// It rejects edges referencing unknown nodes or creating cycles.
func (g *Graph) DerivedFrom(result, origin string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[result]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, result)
	}
	if _, ok := g.nodes[origin]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, origin)
	}
	if result == origin {
		return ErrCycle
	}
	// Reject if origin is reachable from result in the derives
	// direction (i.e. result already an ancestor of origin).
	if g.reachableLocked(g.derivedFrom, origin, result) {
		return ErrCycle
	}
	for _, existing := range g.derivedFrom[result] {
		if existing == origin {
			return nil // idempotent
		}
	}
	g.derivedFrom[result] = append(g.derivedFrom[result], origin)
	g.derives[origin] = append(g.derives[origin], result)
	return nil
}

func (g *Graph) reachableLocked(adj map[string][]string, from, to string) bool {
	if from == to {
		return true
	}
	seen := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range adj[cur] {
			if next == to {
				return true
			}
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// WhereFrom returns every transitive ancestor of the node (the data
// and computations it came from), sorted by ID.
func (g *Graph) WhereFrom(id string) ([]Node, error) {
	return g.closure(id, false)
}

// WhereTo returns every transitive descendant (everything derived
// from this node) — the paper's "where-to analysis" supporting
// guidance.
func (g *Graph) WhereTo(id string) ([]Node, error) {
	return g.closure(id, true)
}

// closure walks the ancestor (forward=false) or descendant
// (forward=true) relation. The adjacency map is selected inside the
// critical section so the guarded reference never crosses it.
func (g *Graph) closure(id string, forward bool) ([]Node, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if _, ok := g.nodes[id]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	adj := g.derivedFrom
	if forward {
		adj = g.derives
	}
	seen := map[string]bool{id: true}
	stack := []string{id}
	var out []Node
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range adj[cur] {
			if seen[next] {
				continue
			}
			seen[next] = true
			out = append(out, *g.nodes[next])
			stack = append(stack, next)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// SourcesOf returns the source nodes in the node's ancestry.
func (g *Graph) SourcesOf(id string) ([]Node, error) {
	anc, err := g.WhereFrom(id)
	if err != nil {
		return nil, err
	}
	var out []Node
	for _, n := range anc {
		if n.Kind == KindSource {
			out = append(out, n)
		}
	}
	return out, nil
}

// LosslessnessReport lists answer/claim nodes that cannot be traced to
// any source.
type LosslessnessReport struct {
	Lossless bool
	Orphans  []string // IDs of untraceable answers/claims
}

// CheckLosslessness verifies every answer and claim node reaches at
// least one source node.
func (g *Graph) CheckLosslessness() LosslessnessReport {
	g.mu.RLock()
	ids := make([]string, 0, len(g.nodes))
	for id, n := range g.nodes {
		if n.Kind == KindAnswer || n.Kind == KindClaim {
			ids = append(ids, id)
		}
	}
	g.mu.RUnlock()
	sort.Strings(ids)
	rep := LosslessnessReport{Lossless: true}
	for _, id := range ids {
		srcs, err := g.SourcesOf(id)
		if err != nil || len(srcs) == 0 {
			rep.Lossless = false
			rep.Orphans = append(rep.Orphans, id)
		}
	}
	return rep
}

// InvertibilityReport lists computation nodes whose calculation cannot
// be recovered (no "code" or "query" metadata).
type InvertibilityReport struct {
	Invertible bool
	Opaque     []string
}

// CheckInvertibility verifies every computation node records its code
// or query.
func (g *Graph) CheckInvertibility() InvertibilityReport {
	g.mu.RLock()
	defer g.mu.RUnlock()
	rep := InvertibilityReport{Invertible: true}
	ids := make([]string, 0)
	for id, n := range g.nodes {
		if n.Kind != KindComputation {
			continue
		}
		if n.Meta["code"] == "" && n.Meta["query"] == "" {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	if len(ids) > 0 {
		rep.Invertible = false
		rep.Opaque = ids
	}
	return rep
}

// Summary renders a compact human-readable trace of a node's
// ancestry, one line per ancestor, deepest (sources) last.
func (g *Graph) Summary(id string) string {
	n, ok := g.Node(id)
	if !ok {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %q", n.Kind, n.Label)
	anc, err := g.WhereFrom(id)
	if err != nil {
		return sb.String()
	}
	// Order: computations/queries first, sources last.
	sort.SliceStable(anc, func(i, j int) bool { return anc[i].Kind > anc[j].Kind })
	for _, a := range anc {
		fmt.Fprintf(&sb, "\n  <- %s %q", a.Kind, a.Label)
		if q := a.Meta["query"]; q != "" {
			fmt.Fprintf(&sb, " [%s]", q)
		}
		if u := a.Meta["uri"]; u != "" {
			fmt.Fprintf(&sb, " (%s)", u)
		}
	}
	return sb.String()
}

// DOT renders the graph in Graphviz format for debugging and docs.
func (g *Graph) DOT() string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var sb strings.Builder
	sb.WriteString("digraph provenance {\n")
	for _, id := range ids {
		n := g.nodes[id]
		fmt.Fprintf(&sb, "  %q [label=%q shape=%s];\n", id, n.Label, dotShape(n.Kind))
	}
	for _, id := range ids {
		origins := append([]string{}, g.derivedFrom[id]...)
		sort.Strings(origins)
		for _, o := range origins {
			fmt.Fprintf(&sb, "  %q -> %q;\n", id, o)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func dotShape(k Kind) string {
	switch k {
	case KindSource:
		return "cylinder"
	case KindQuery, KindComputation:
		return "box"
	default:
		return "ellipse"
	}
}
