package storage

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Bitmap marks rows by index. The nil Bitmap marks none, and a bitmap
// is only as long as its last marked row needs.
type Bitmap []uint64

// Get reports whether row i is marked.
func (b Bitmap) Get(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

// Count returns how many rows in [lo, hi) are marked.
func (b Bitmap) Count(lo, hi int) int {
	n := 0
	for w := lo >> 6; w < len(b) && w<<6 < hi; w++ {
		word := b[w]
		if base := w << 6; base < lo {
			word &^= 1<<uint(lo-base) - 1
		}
		if end := (w + 1) << 6; end > hi {
			word &= 1<<uint(hi-w<<6) - 1
		}
		n += bits.OnesCount64(word)
	}
	return n
}

func (b *Bitmap) set(i int) {
	w := i >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

func (b Bitmap) clear(i int) {
	if w := i >> 6; w < len(b) {
		b[w] &^= 1 << (uint(i) & 63)
	}
}

// Vector is one column: the values of one kind in a slice of that
// kind's Go type, plus a bitmap of the rows that are NULL (whose slots
// hold the zero value). A KindNull vector is a length and nothing
// else: every row is NULL. Value is the scalar form of a cell, built
// on the way out (At) and taken apart on the way in (Append, Set).
//
// A Vector is safe for concurrent readers; writes must be externally
// serialized, as for Table.
type Vector struct {
	kind   Kind
	n      int
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	nulls  Bitmap
	// distinct memoises Table.DistinctStrings; every write drops it.
	distinct atomic.Pointer[[]string]
}

// NewVector returns an empty vector of the given kind with room for
// capacity rows.
func NewVector(kind Kind, capacity int) *Vector {
	v := &Vector{kind: kind}
	switch kind {
	case KindInt:
		v.ints = make([]int64, 0, capacity)
	case KindFloat:
		v.floats = make([]float64, 0, capacity)
	case KindString:
		v.strs = make([]string, 0, capacity)
	case KindBool:
		v.bools = make([]bool, 0, capacity)
	}
	return v
}

// Kind returns the kind of every non-NULL value of the vector.
func (v *Vector) Kind() Kind { return v.kind }

// Len returns the row count.
func (v *Vector) Len() int { return v.n }

// Ints, Floats, Strings and Bools return the values of a vector of
// that kind, one per row (nil for a vector of another kind); callers
// must treat them as read-only and consult Nulls for which rows count.
func (v *Vector) Ints() []int64     { return v.ints }
func (v *Vector) Floats() []float64 { return v.floats }
func (v *Vector) Strings() []string { return v.strs }
func (v *Vector) Bools() []bool     { return v.bools }

// Nulls returns the bitmap of NULL rows, nil when there is none — and
// for a KindNull vector, whose every row is NULL without one.
func (v *Vector) Nulls() Bitmap { return v.nulls }

// IsNull reports whether row r is NULL.
func (v *Vector) IsNull(r int) bool { return v.kind == KindNull || v.nulls.Get(r) }

// NullCount returns how many rows in [lo, hi) are NULL.
func (v *Vector) NullCount(lo, hi int) int {
	if v.kind == KindNull {
		return hi - lo
	}
	return v.nulls.Count(lo, hi)
}

// At returns row r as a Value.
func (v *Vector) At(r int) Value {
	if v.nulls.Get(r) {
		return Value{}
	}
	switch v.kind {
	case KindInt:
		return Value{Kind: KindInt, I: v.ints[r]}
	case KindFloat:
		return Value{Kind: KindFloat, F: v.floats[r]}
	case KindString:
		return Value{Kind: KindString, S: v.strs[r]}
	case KindBool:
		return Value{Kind: KindBool, B: v.bools[r]}
	default:
		return Value{}
	}
}

// fit returns val as a cell of a column of the given kind: NULL goes
// anywhere, an INT widens into a FLOAT column, and any other kind but
// the column's own is refused.
func fit(kind Kind, val Value) (Value, error) {
	switch {
	case val.Kind == KindNull || val.Kind == kind:
		return val, nil
	case kind == KindFloat && val.Kind == KindInt:
		return Float(float64(val.I)), nil
	default:
		return val, fmt.Errorf("wants %s, got %s", kind, val.Kind)
	}
}

// Append adds one row under Table.AppendRow's rules: NULL anywhere, an
// INT widened into a FLOAT vector, any other kind refused.
func (v *Vector) Append(val Value) error {
	val, err := fit(v.kind, val)
	if err != nil {
		return fmt.Errorf("storage: column %w", err)
	}
	v.push(val)
	return nil
}

// push appends a value fit has passed.
func (v *Vector) push(val Value) {
	if val.Kind == KindNull && v.kind != KindNull {
		v.nulls.set(v.n)
	}
	switch v.kind {
	case KindInt:
		v.ints = append(v.ints, val.I)
	case KindFloat:
		v.floats = append(v.floats, val.F)
	case KindString:
		v.strs = append(v.strs, val.S)
	case KindBool:
		v.bools = append(v.bools, val.B)
	}
	v.n++
	v.written()
}

// written drops what was memoised about the values; the load keeps an
// atomic store off the path of every cell a load appends.
func (v *Vector) written() {
	if v.distinct.Load() != nil {
		v.distinct.Store(nil)
	}
}

// Set overwrites row r under Append's rules.
func (v *Vector) Set(r int, val Value) error {
	if r < 0 || r >= v.n {
		return fmt.Errorf("storage: row %d of a %d-row column", r, v.n)
	}
	val, err := fit(v.kind, val)
	if err != nil {
		return fmt.Errorf("storage: column %w", err)
	}
	if v.kind == KindNull {
		return nil
	}
	if val.Kind == KindNull {
		v.nulls.set(r)
	} else {
		v.nulls.clear(r)
	}
	switch v.kind {
	case KindInt:
		v.ints[r] = val.I
	case KindFloat:
		v.floats[r] = val.F
	case KindString:
		v.strs[r] = val.S
	case KindBool:
		v.bools[r] = val.B
	}
	v.written()
	return nil
}

// Extend appends every row of src, which must be of v's kind, INT for
// a FLOAT vector (widened), or KindNull.
func (v *Vector) Extend(src *Vector) error {
	if src.kind != v.kind {
		// Whether cells of another kind fit depends on the kind alone;
		// the ones that do (INT, or nothing but NULL) go in one by one.
		if _, err := fit(v.kind, Value{Kind: src.kind}); err != nil {
			return fmt.Errorf("storage: column %w", err)
		}
		for r := 0; r < src.n; r++ {
			if err := v.Append(src.At(r)); err != nil {
				return err
			}
		}
		return nil
	}
	for w, word := range src.nulls {
		for ; word != 0; word &= word - 1 {
			v.nulls.set(v.n + w<<6 + bits.TrailingZeros64(word))
		}
	}
	// Three of the four are nil on both sides.
	v.ints = append(v.ints, src.ints...)
	v.floats = append(v.floats, src.floats...)
	v.strs = append(v.strs, src.strs...)
	v.bools = append(v.bools, src.bools...)
	v.n += src.n
	v.written()
	return nil
}

// Gather returns a new vector of v's kind holding v's rows at the
// given indexes, in that order.
func (v *Vector) Gather(rows []int) *Vector {
	out := &Vector{kind: v.kind, n: len(rows)}
	switch v.kind {
	case KindInt:
		out.ints = gather(v.ints, rows)
	case KindFloat:
		out.floats = gather(v.floats, rows)
	case KindString:
		out.strs = gather(v.strs, rows)
	case KindBool:
		out.bools = gather(v.bools, rows)
	}
	if len(v.nulls) > 0 {
		for i, r := range rows {
			if v.nulls.Get(r) {
				out.nulls.set(i)
			}
		}
	}
	return out
}

func gather[T any](src []T, rows []int) []T {
	out := make([]T, len(rows))
	for i, r := range rows {
		out[i] = src[r]
	}
	return out
}
