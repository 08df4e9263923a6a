package storage

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
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
// hold the zero value). A TEXT vector keeps each distinct string once,
// in its dictionary, and one code per row into it. A KindNull vector
// is a length and nothing else: every row is NULL. Value is the scalar
// form of a cell, built on the way out (At) and taken apart on the way
// in (Append, Set).
//
// A Vector is safe for concurrent readers; writes must be externally
// serialized, as for Table.
type Vector struct {
	kind   Kind
	n      int
	ints   []int64
	floats []float64
	dict   []string
	codes  []uint32
	bools  []bool
	nulls  Bitmap
	// index maps each string of dict to its code. The first write that
	// needs it builds it, and the end of a load (seal) drops it.
	index map[string]uint32
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
		v.codes = make([]uint32, 0, capacity)
	case KindBool:
		v.bools = make([]bool, 0, capacity)
	}
	return v
}

// NewTextVector returns the TEXT vector whose row r is dict[codes[r]],
// taking codes over; every code must index dict. The dictionary is
// read through the index, so a string it holds twice is kept once and
// its rows share one code.
func NewTextVector(dict []string, codes []uint32) (*Vector, error) {
	for r, k := range codes {
		if int(k) >= len(dict) {
			return nil, fmt.Errorf("storage: row %d has code %d, outside a dictionary of %d", r, k, len(dict))
		}
	}
	v := &Vector{kind: KindString, n: len(codes), codes: codes}
	recode := make([]uint32, len(dict))
	for k, s := range dict {
		recode[k] = v.code(s, false)
	}
	if len(v.dict) < len(dict) {
		for r, k := range codes {
			codes[r] = recode[k]
		}
	}
	return v, nil
}

// Kind returns the kind of every non-NULL value of the vector.
func (v *Vector) Kind() Kind { return v.kind }

// Len returns the row count.
func (v *Vector) Len() int { return v.n }

// Ints, Floats and Bools return the values of a vector of that kind,
// one per row (nil for a vector of another kind); callers must treat
// them as read-only and consult Nulls for which rows count.
func (v *Vector) Ints() []int64     { return v.ints }
func (v *Vector) Floats() []float64 { return v.floats }
func (v *Vector) Bools() []bool     { return v.bools }

// Dict and Codes are a TEXT vector's values: a row that is not NULL
// holds Dict()[Codes()[r]], and a NULL row has code 0. No string is in
// Dict twice, though one may be in no row. Callers must treat both as
// read-only.
func (v *Vector) Dict() []string  { return v.dict }
func (v *Vector) Codes() []uint32 { return v.codes }

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
		return Value{Kind: KindString, S: v.dict[v.codes[r]]}
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
	v.push(val, false)
	return nil
}

// push appends a value fit has passed. A borrowed string is copied if
// the dictionary takes it, so that it does not keep the buffer it was
// cut from alive.
func (v *Vector) push(val Value, borrowed bool) {
	if val.Kind == KindNull && v.kind != KindNull {
		v.nulls.set(v.n)
	}
	switch v.kind {
	case KindInt:
		v.ints = append(v.ints, val.I)
	case KindFloat:
		v.floats = append(v.floats, val.F)
	case KindString:
		var k uint32
		if val.Kind != KindNull {
			k = v.code(val.S, borrowed)
		}
		v.codes = append(v.codes, k)
	case KindBool:
		v.bools = append(v.bools, val.B)
	}
	v.n++
	v.written()
}

// code returns the code of s, adding s to the dictionary when it is
// new (a copy of it when borrowed).
func (v *Vector) code(s string, borrowed bool) uint32 {
	if v.index == nil {
		v.index = make(map[string]uint32, len(v.dict))
		for k, d := range v.dict {
			v.index[d] = uint32(k)
		}
	}
	k, ok := v.index[s]
	if !ok {
		if borrowed {
			s = strings.Clone(s)
		}
		k = uint32(len(v.dict))
		v.dict = append(v.dict, s)
		v.index[s] = k
	}
	return k
}

// written drops what was memoised about the values; the load keeps an
// atomic store off the path of every cell a load appends.
func (v *Vector) written() {
	if v.distinct.Load() != nil {
		v.distinct.Store(nil)
	}
}

// seal ends a load: every slice is cut to its exact length, and the
// index, which only writes use, is dropped.
func (v *Vector) seal() {
	v.ints, v.floats, v.bools = exact(v.ints), exact(v.floats), exact(v.bools)
	v.dict, v.codes, v.nulls = exact(v.dict), exact(v.codes), exact(v.nulls)
	v.index = nil
}

func exact[S ~[]E, E any](s S) S {
	if len(s) == cap(s) {
		return s
	}
	return append(make(S, 0, len(s)), s...)
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
		var k uint32
		if val.Kind != KindNull {
			k = v.code(val.S, false)
		}
		v.codes[r] = k
	case KindBool:
		v.bools[r] = val.B
	}
	v.written()
	return nil
}

// Extend appends every row of src, which must be of v's kind, INT for
// a FLOAT vector (widened), or KindNull. A TEXT row's code is mapped
// from src's dictionary into v's.
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
	nulls := src.nulls
	if src == v {
		// The bits set below would land in words still to be read.
		nulls = slices.Clone(nulls)
	}
	for w, word := range nulls {
		for ; word != 0; word &= word - 1 {
			v.nulls.set(v.n + w<<6 + bits.TrailingZeros64(word))
		}
	}
	switch v.kind {
	case KindInt:
		v.ints = append(v.ints, src.ints...)
	case KindFloat:
		v.floats = append(v.floats, src.floats...)
	case KindString:
		// remap[k] is 1 + the code in v of src's string k, 0 until a row
		// uses it.
		remap := make([]uint32, len(src.dict))
		for r, k := range src.codes {
			if src.nulls.Get(r) {
				v.codes = append(v.codes, 0)
				continue
			}
			if remap[k] == 0 {
				remap[k] = 1 + v.code(src.dict[k], false)
			}
			v.codes = append(v.codes, remap[k]-1)
		}
	case KindBool:
		v.bools = append(v.bools, src.bools...)
	}
	v.n += src.n
	v.written()
	return nil
}

// Gather returns a new vector of v's kind holding v's rows at the
// given indexes, in that order. A TEXT vector's dictionary is shared,
// capped at its length: a string the new vector adds reallocates it,
// and one v adds lands past what the new vector sees.
func (v *Vector) Gather(rows []int) *Vector {
	out := &Vector{kind: v.kind, n: len(rows)}
	switch v.kind {
	case KindInt:
		out.ints = gather(v.ints, rows)
	case KindFloat:
		out.floats = gather(v.floats, rows)
	case KindString:
		out.dict = v.dict[:len(v.dict):len(v.dict)]
		out.codes = gather(v.codes, rows)
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
