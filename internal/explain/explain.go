// Package explain assembles user-facing explanations (P3) from
// provenance graphs and analysis metadata: a concise summary, the
// code/query that produced the result, and the cited sources.
//
// Explanations are built deterministically from their inputs, which
// yields the paper's consistency requirement for free: equivalent
// outcomes produce byte-identical explanations (verified by tests),
// and there can be no contradictory explanations for one outcome.
package explain

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/reliable-cda/cda/internal/provenance"
	"github.com/reliable-cda/cda/internal/storage"
)

// Explanation is the annotation attached to every CDA answer.
type Explanation struct {
	// Summary is the one-paragraph NL account of how the answer was
	// produced.
	Summary string
	// Code is the executable artifact behind the answer (SQL text or
	// analysis call), satisfying "with the code that produced them".
	Code string
	// Sources are the citable origins (URIs, dataset names).
	Sources []string
	// Caveats list soundness qualifiers ("computed only where enough
	// data was present").
	Caveats []string
}

// FromProvenance derives an explanation for a node of the provenance
// graph: the summary narrates the derivation chain, Code carries the
// closest computation's query/code, and Sources collect source-node
// labels and URIs (sorted, deduplicated).
func FromProvenance(g *provenance.Graph, answerID string) (Explanation, error) {
	var ex Explanation
	node, ok := g.Node(answerID)
	if !ok {
		return ex, fmt.Errorf("explain: unknown provenance node %q", answerID)
	}
	ancestors, err := g.WhereFrom(answerID)
	if err != nil {
		return ex, err
	}
	var comps, queries []provenance.Node
	srcSet := map[string]struct{}{}
	for _, a := range ancestors {
		switch a.Kind {
		case provenance.KindComputation:
			comps = append(comps, a)
		case provenance.KindQuery:
			queries = append(queries, a)
		case provenance.KindSource:
			label := a.Label
			if uri := a.Meta["uri"]; uri != "" {
				label += " (" + uri + ")"
			}
			srcSet[label] = struct{}{}
		}
	}
	for s := range srcSet {
		ex.Sources = append(ex.Sources, s)
	}
	sort.Strings(ex.Sources)

	var codes []string
	for _, c := range comps {
		if code := c.Meta["code"]; code != "" {
			codes = append(codes, code)
		}
	}
	for _, q := range queries {
		if code := q.Meta["query"]; code != "" {
			codes = append(codes, code)
		}
	}
	sort.Strings(codes)
	ex.Code = strings.Join(codes, "\n")

	var sb strings.Builder
	fmt.Fprintf(&sb, "The answer %q was derived", node.Label)
	if len(comps) > 0 {
		names := nodeLabels(comps)
		fmt.Fprintf(&sb, " by %s", strings.Join(names, ", "))
	}
	if len(queries) > 0 {
		fmt.Fprintf(&sb, " over %d quer%s", len(queries), plural(len(queries), "y", "ies"))
	}
	if len(ex.Sources) > 0 {
		fmt.Fprintf(&sb, " from %s", strings.Join(ex.Sources, "; "))
	}
	sb.WriteString(".")
	ex.Summary = sb.String()
	return ex, nil
}

func nodeLabels(ns []provenance.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Label
	}
	sort.Strings(out)
	return out
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// Render serializes the explanation for display, scaled by the
// verbosity multiplier from the guidance layer's expertise profile:
// 1.0 shows everything; lower values drop caveat detail and then code
// while ALWAYS retaining the sources (losslessness of citation is
// non-negotiable).
func (e Explanation) Render(verbosity float64) string {
	var sb strings.Builder
	sb.WriteString(e.Summary)
	if verbosity >= 0.75 {
		for _, c := range e.Caveats {
			sb.WriteString("\nNote: " + c)
		}
	}
	if verbosity >= 0.5 && e.Code != "" {
		sb.WriteString("\nCode:\n" + e.Code)
	}
	if len(e.Sources) > 0 {
		sb.WriteString("\nSources: " + strings.Join(e.Sources, "; "))
	}
	return sb.String()
}

// sparkRunes are the eight block characters of a text sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series as a compact unicode chart — the textual
// stand-in for Figure 1's "here is the plot". NaN values render as a
// space. Series longer than maxWidth are downsampled by bucket means.
func Sparkline(values []float64, maxWidth int) string {
	if len(values) == 0 {
		return ""
	}
	if maxWidth < 1 {
		maxWidth = 60
	}
	// Downsample to maxWidth buckets.
	if len(values) > maxWidth {
		bucketed := make([]float64, maxWidth)
		for b := 0; b < maxWidth; b++ {
			lo := b * len(values) / maxWidth
			hi := (b + 1) * len(values) / maxWidth
			if hi <= lo {
				hi = lo + 1
			}
			var sum float64
			n := 0
			for _, v := range values[lo:hi] {
				if !math.IsNaN(v) {
					sum += v
					n++
				}
			}
			if n == 0 {
				bucketed[b] = math.NaN()
			} else {
				bucketed[b] = sum / float64(n)
			}
		}
		values = bucketed
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		return strings.Repeat(" ", len(values))
	}
	span := hi - lo
	var sb strings.Builder
	for _, v := range values {
		if math.IsNaN(v) {
			sb.WriteRune(' ')
			continue
		}
		idx := 0
		if span > 0 {
			idx = int((v - lo) / span * float64(len(sparkRunes)-1))
		}
		sb.WriteRune(sparkRunes[idx])
	}
	return sb.String()
}

// DescribeTable produces the grounded data-source summary the NL
// model layer owes the user ("summaries of data sources"): every
// number in the text is computed from the data itself, so the summary
// cannot hallucinate. The output is deterministic.
func DescribeTable(t *storage.Table) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d rows × %d columns.", t.Name, t.NumRows(), t.NumCols())
	if t.Description != "" {
		sb.WriteString(" " + t.Description + ".")
	}
	for _, st := range storage.Profile(t) {
		fmt.Fprintf(&sb, "\n- %s (%s): %d distinct", st.Name, st.Kind, st.Distinct)
		if st.Nulls > 0 {
			fmt.Fprintf(&sb, ", %d missing", st.Nulls)
		}
		if st.HasNumeric {
			fmt.Fprintf(&sb, "; range %s–%s, mean %s",
				trimNum(st.Min), trimNum(st.Max), trimNum(st.Mean))
		} else if len(st.TopValues) > 0 && st.Distinct <= 20 {
			parts := make([]string, len(st.TopValues))
			for i, vc := range st.TopValues {
				parts[i] = fmt.Sprintf("%s (%d)", vc.Value, vc.Count)
			}
			fmt.Fprintf(&sb, "; most frequent: %s", strings.Join(parts, ", "))
		}
	}
	return sb.String()
}

func trimNum(f float64) string {
	s := fmt.Sprintf("%.2f", f)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
