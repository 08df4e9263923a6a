// Package storage implements the columnar table store underlying the
// CDA computational infrastructure: typed columns, in-memory tables
// with schema, a database registry, and a CSV codec. The SQL engine
// (internal/sqldb) executes against these tables and the provenance
// layer references their rows by (table, row-index) coordinates.
package storage

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the value types a column can hold.
type Kind int

// Supported column kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a dynamically typed cell value. The zero Value is NULL.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	B    bool
}

// Convenience constructors.
func Null() Value           { return Value{} }
func Int(i int64) Value     { return Value{Kind: KindInt, I: i} }
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }
func Str(s string) Value    { return Value{Kind: KindString, S: s} }
func Bool(b bool) Value     { return Value{Kind: KindBool, B: b} }

// IsNull reports whether v is the NULL value.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat coerces numeric values to float64; booleans map to 0/1.
// Returns false for NULL and strings that do not parse as numbers.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	case KindBool:
		if v.B {
			return 1, true
		}
		return 0, true
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// String renders the value for display; NULL renders as "NULL".
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		return strconv.FormatBool(v.B)
	default:
		return "?"
	}
}

// Compare orders two values. NULL sorts before everything; numeric
// kinds compare numerically across Int/Float; otherwise values must
// share a kind. Returns -1, 0, or +1 and an error on incomparable
// kinds.
func (v Value) Compare(o Value) (int, error) {
	if v.IsNull() || o.IsNull() {
		switch {
		case v.IsNull() && o.IsNull():
			return 0, nil
		case v.IsNull():
			return -1, nil
		default:
			return 1, nil
		}
	}
	if isNumeric(v.Kind) && isNumeric(o.Kind) {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.Kind != o.Kind {
		return 0, fmt.Errorf("storage: cannot compare %s with %s", v.Kind, o.Kind)
	}
	switch v.Kind {
	case KindString:
		return strings.Compare(v.S, o.S), nil
	case KindBool:
		switch {
		case v.B == o.B:
			return 0, nil
		case !v.B:
			return -1, nil
		default:
			return 1, nil
		}
	default:
		return 0, fmt.Errorf("storage: cannot compare kind %s", v.Kind)
	}
}

// Equal reports deep value equality with numeric cross-kind coercion.
func (v Value) Equal(o Value) bool {
	c, err := v.Compare(o)
	return err == nil && c == 0
}

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat }

// ParseValue parses raw text into the given kind. Empty text becomes
// NULL for every kind, and NaN or infinite text is no number.
func ParseValue(raw string, kind Kind) (Value, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return Null(), nil
	}
	switch kind {
	case KindInt:
		i, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			// Accept float-looking integers like "3.0".
			f, ok := parseFinite(raw)
			if !ok || f != math.Trunc(f) {
				return Null(), fmt.Errorf("storage: %q is not an INT", raw)
			}
			i = int64(f)
		}
		return Int(i), nil
	case KindFloat:
		f, ok := parseFinite(raw)
		if !ok {
			return Null(), fmt.Errorf("storage: %q is not a FLOAT", raw)
		}
		return Float(f), nil
	case KindString:
		return Str(raw), nil
	case KindBool:
		b, err := strconv.ParseBool(strings.ToLower(raw))
		if err != nil {
			return Null(), fmt.Errorf("storage: %q is not a BOOL", raw)
		}
		return Bool(b), nil
	default:
		return Null(), fmt.Errorf("storage: cannot parse into kind %s", kind)
	}
}

// InferKind guesses the narrowest kind that parses every sample; the
// order of preference is INT, FLOAT, BOOL, TEXT. Empty samples are
// ignored. With no non-empty samples it returns TEXT.
func InferKind(samples []string) Kind {
	okInt, okFloat, okBool, seen := true, true, true, false
	for _, s := range samples {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		seen = true
		if _, err := strconv.ParseInt(s, 10, 64); err != nil {
			okInt = false
		}
		if _, ok := parseFinite(s); !ok {
			okFloat = false
		}
		if _, err := strconv.ParseBool(strings.ToLower(s)); err != nil {
			okBool = false
		}
	}
	switch {
	case !seen:
		return KindString
	case okInt:
		return KindInt
	case okFloat:
		return KindFloat
	case okBool:
		return KindBool
	default:
		return KindString
	}
}

// parseFinite parses s as a finite float. strconv.ParseFloat also reads
// "NaN" and "inf", which have no JSON form: a column holding one could
// not be committed as a version.
func parseFinite(s string) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil && !math.IsNaN(f) && !math.IsInf(f, 0)
}
