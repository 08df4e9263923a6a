package storage

import (
	"math"
	"sort"
)

// ColumnStats profiles one column: the numbers a data-source summary
// or a cardinality-aware optimizer needs.
type ColumnStats struct {
	Name     string
	Kind     Kind
	Rows     int
	Nulls    int
	Distinct int
	// Numeric profile (valid when Kind is INT or FLOAT and at least
	// one non-NULL value exists).
	Min, Max, Mean float64
	HasNumeric     bool
	// TopValues are the most frequent non-NULL values (up to 3) for
	// low-cardinality columns, by descending count then value.
	TopValues []ValueCount
}

// ValueCount pairs a rendered value with its frequency.
type ValueCount struct {
	Value string
	Count int
}

// Profile computes statistics for every column of the table.
func Profile(t *Table) []ColumnStats {
	out := make([]ColumnStats, t.NumCols())
	for c, def := range t.Schema() {
		st := ColumnStats{Name: def.Name, Kind: def.Kind, Rows: t.NumRows()}
		counts := map[string]int{}
		var sum float64
		numeric := 0
		st.Min, st.Max = math.Inf(1), math.Inf(-1)
		col := t.cols[c]
		for r := 0; r < col.Len(); r++ {
			v := col.At(r)
			if v.IsNull() {
				st.Nulls++
				continue
			}
			counts[v.String()]++
			if f, ok := v.AsFloat(); ok && isNumeric(v.Kind) {
				sum += f
				numeric++
				if f < st.Min {
					st.Min = f
				}
				if f > st.Max {
					st.Max = f
				}
			}
		}
		st.Distinct = len(counts)
		if numeric > 0 {
			st.Mean = sum / float64(numeric)
			st.HasNumeric = true
		} else {
			st.Min, st.Max = 0, 0
		}
		vcs := make([]ValueCount, 0, len(counts))
		for v, n := range counts {
			vcs = append(vcs, ValueCount{Value: v, Count: n})
		}
		sort.Slice(vcs, func(i, j int) bool {
			if vcs[i].Count != vcs[j].Count {
				return vcs[i].Count > vcs[j].Count
			}
			return vcs[i].Value < vcs[j].Value
		})
		if len(vcs) > 3 {
			vcs = vcs[:3]
		}
		st.TopValues = vcs
		out[c] = st
	}
	return out
}
