package analysis

import (
	"fmt"
	"go/ast"
	"strings"
)

// Nondeterminism flags wall-clock and global-randomness calls that
// would make benchmark and experiment runs irreproducible: the
// simulated NL model (DESIGN.md §2) is only a valid experimental
// instrument because every stochastic component is driven by an
// explicit seed, and every paper number can be regenerated
// bit-for-bit. time.Now() and the global math/rand source are the
// two ways determinism silently leaks out of such a system.
//
// Explicitly-seeded sources (rand.New(rand.NewSource(seed))) are
// fine. An allowlist covers the one place wall-clock time is the
// point: internal/experiments wall-clock measurements.
var Nondeterminism = &Analyzer{
	Name:     ruleNondeterminism,
	Doc:      "time.Now() or the global math/rand source outside the timing allowlist",
	Severity: SeverityError,
	Run:      runNondeterminism,
}

// nondetAllowedPkg is the import-path suffix of the one package where
// wall-clock access is intentional: it measures real latency.
const nondetAllowedPkg = "internal/experiments"

// nondetAllowedFuncs are math/rand package-level functions that
// construct explicit sources rather than touching the global one.
var nondetAllowedFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runNondeterminism(p *Package) []Finding {
	if strings.HasSuffix(p.Path, nondetAllowedPkg) {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			sig := fn.FullName()
			switch {
			case sig == "time.Now" || sig == "time.Since":
				out = append(out, Finding{
					Rule: ruleNondeterminism, Severity: SeverityError,
					Pos:     p.Fset.Position(call.Pos()),
					Message: fmt.Sprintf("%s() makes runs irreproducible; thread a logical clock or seed through the config", fn.Name()),
				})
			case (fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2") && isPackageLevel(fn) && !nondetAllowedFuncs[fn.Name()]:
				out = append(out, Finding{
					Rule: ruleNondeterminism, Severity: SeverityError,
					Pos: p.Fset.Position(call.Pos()),
					Message: fmt.Sprintf("rand.%s uses the global math/rand source; use rand.New(rand.NewSource(seed)) so runs are reproducible",
						fn.Name()),
				})
			}
			return true
		})
	}
	return out
}

// isPackageLevel reports whether fn is a package-level function (not
// a method, e.g. (*rand.Rand).Intn which is fine on a seeded source).
func isPackageLevel(fn interface{ FullName() string }) bool {
	return !strings.Contains(fn.FullName(), "(")
}
