package sqldb

import (
	"fmt"
	"math"
	"strings"

	"github.com/reliable-cda/cda/internal/storage"
)

// The scalar semantics both engines share: the columnar kernels
// (batch.go) and the row oracle's evaluator (oracle_test.go) both call
// these helpers, so arithmetic, scalar functions, truthiness and LIKE
// cannot drift between them.

// evalArith applies an arithmetic operator; NULL propagates, and +
// over two strings concatenates.
func evalArith(op string, l, r storage.Value) (storage.Value, error) {
	if l.IsNull() || r.IsNull() {
		return storage.Null(), nil
	}
	// String concatenation via +.
	if op == "+" && l.Kind == storage.KindString && r.Kind == storage.KindString {
		return storage.Str(l.S + r.S), nil
	}
	bothInt := l.Kind == storage.KindInt && r.Kind == storage.KindInt
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok || l.Kind == storage.KindString || r.Kind == storage.KindString {
		return storage.Null(), fmt.Errorf("sql: cannot apply %s to %s and %s", op, l.Kind, r.Kind)
	}
	if bothInt && op != "/" {
		switch op {
		case "+":
			return storage.Int(l.I + r.I), nil
		case "-":
			return storage.Int(l.I - r.I), nil
		case "*":
			return storage.Int(l.I * r.I), nil
		case "%":
			if r.I == 0 {
				return storage.Null(), fmt.Errorf("sql: modulo by zero")
			}
			return storage.Int(l.I % r.I), nil
		}
	}
	switch op {
	case "+":
		return storage.Float(lf + rf), nil
	case "-":
		return storage.Float(lf - rf), nil
	case "*":
		return storage.Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return storage.Null(), fmt.Errorf("sql: division by zero")
		}
		return storage.Float(lf / rf), nil
	case "%":
		return storage.Null(), fmt.Errorf("sql: %% requires integer operands")
	}
	return storage.Null(), fmt.Errorf("sql: unknown arithmetic operator %q", op)
}

// evalScalar applies a scalar function to already-evaluated
// arguments. NULL propagates through every function except COALESCE.
func evalScalar(name string, args []storage.Value) (storage.Value, error) {
	if name == "COALESCE" {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return storage.Null(), nil
	}
	for _, a := range args {
		if a.IsNull() {
			return storage.Null(), nil
		}
	}
	switch name {
	case "LOWER", "UPPER":
		if args[0].Kind != storage.KindString {
			return storage.Null(), fmt.Errorf("sql: %s requires a string, got %s", name, args[0].Kind)
		}
		if name == "LOWER" {
			return storage.Str(strings.ToLower(args[0].S)), nil
		}
		return storage.Str(strings.ToUpper(args[0].S)), nil
	case "LENGTH":
		if args[0].Kind != storage.KindString {
			return storage.Null(), fmt.Errorf("sql: LENGTH requires a string, got %s", args[0].Kind)
		}
		return storage.Int(int64(len([]rune(args[0].S)))), nil
	case "ABS":
		switch args[0].Kind {
		case storage.KindInt:
			v := args[0].I
			if v < 0 {
				v = -v
			}
			return storage.Int(v), nil
		case storage.KindFloat:
			return storage.Float(math.Abs(args[0].F)), nil
		default:
			return storage.Null(), fmt.Errorf("sql: ABS requires a number, got %s", args[0].Kind)
		}
	case "ROUND":
		f, ok := args[0].AsFloat()
		if !ok || args[0].Kind == storage.KindString || args[0].Kind == storage.KindBool {
			return storage.Null(), fmt.Errorf("sql: ROUND requires a number, got %s", args[0].Kind)
		}
		digits := int64(0)
		if len(args) == 2 {
			if args[1].Kind != storage.KindInt {
				return storage.Null(), fmt.Errorf("sql: ROUND digits must be an integer")
			}
			digits = args[1].I
		}
		scale := math.Pow(10, float64(digits))
		rounded := math.Round(f*scale) / scale
		if args[0].Kind == storage.KindInt && digits >= 0 {
			return storage.Int(int64(rounded)), nil
		}
		return storage.Float(rounded), nil
	default:
		return storage.Null(), fmt.Errorf("sql: unknown scalar function %s", name)
	}
}

// isTrue reports SQL truthiness: only a BOOL true (or non-zero
// numeric) is true; NULL is not.
func isTrue(v storage.Value) bool {
	switch v.Kind {
	case storage.KindBool:
		return v.B
	case storage.KindInt:
		return v.I != 0
	case storage.KindFloat:
		return v.F != 0
	default:
		return false
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single
// character), case-insensitive, by dynamic programming over bytes.
func likeMatch(s, pattern string) bool {
	s = strings.ToLower(s)
	pattern = strings.ToLower(pattern)
	n, m := len(s), len(pattern)
	// dp[j] = does pattern[:j] match s[:i] for current i.
	prev := make([]bool, m+1)
	cur := make([]bool, m+1)
	prev[0] = true
	for j := 1; j <= m; j++ {
		prev[j] = prev[j-1] && pattern[j-1] == '%'
	}
	for i := 1; i <= n; i++ {
		cur[0] = false
		for j := 1; j <= m; j++ {
			switch pattern[j-1] {
			case '%':
				cur[j] = cur[j-1] || prev[j]
			case '_':
				cur[j] = prev[j-1]
			default:
				cur[j] = prev[j-1] && s[i-1] == pattern[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[m]
}
