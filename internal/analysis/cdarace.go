package analysis

import (
	"fmt"
	"strings"

	"github.com/reliable-cda/cda/internal/analysis/lockset"
)

// The cdarace rule family — racy-access and guard-escape — is the
// static race-detection layer over the lockset
// engine (internal/analysis/lockset): guard relationships are inferred
// field by field from the module-wide must-lockset dataflow, with lock
// summaries propagated through call edges and goroutine spawn points
// clearing the lockset. The two rules share one analysis run, cached
// on the Module, so cdalint pays for the interprocedural fixed point
// once regardless of which rules are enabled.

// RacyAccess reports reads/writes of a guarded field on paths where
// the inferred guarding mutex is not held. "Guarded" is inferred, not
// declared: a field whose accesses are dominantly (at least 2 and at
// least 3/4) under one same-object mutex is treated as protected by
// it, and the minority accesses with an empty lockset are the
// suspects — exactly the peek-without-lock shape go test -race only
// catches on executed interleavings.
var RacyAccess = &Analyzer{
	Name:      ruleRacyAccess,
	Doc:       "a read/write of a mutex-guarded field without holding the inferred guard",
	Severity:  SeverityError,
	RunModule: runRacyAccess,
}

// GuardEscape reports guarded pointer/slice/map fields whose
// reference leaks out of the critical section — returned to a caller
// or handed to a goroutine — without a copy. The leak site may hold
// the lock; the receiver of the reference does not, so every later
// dereference races with guarded mutation.
var GuardEscape = &Analyzer{
	Name:      ruleGuardEscape,
	Doc:       "a guarded pointer/slice/map field leaking by return or into a goroutine without copy",
	Severity:  SeverityWarning,
	RunModule: runGuardEscape,
}

func runRacyAccess(m *Module) []Finding {
	var out []Finding
	for _, grp := range m.Lockset().Groups {
		if grp.Guard == "" {
			continue
		}
		for _, a := range grp.Accesses {
			if a.Held[grp.Guard] {
				continue
			}
			// Escaping reference accesses are guard-escape's territory;
			// a plain value flowing out still races right here.
			if a.Escape != lockset.EscapeNone && (grp.Ref || a.Addr) {
				continue
			}
			verb := "read"
			if a.Write {
				verb = "written"
			}
			out = append(out, Finding{
				Rule: ruleRacyAccess, Severity: SeverityError,
				Pos: a.Unit.Fset.Position(a.Pos),
				Message: fmt.Sprintf("%s is %s without %s, which guards it on %d of %d accesses; hold the lock here or document why this access cannot race",
					grp.Display, verb, guardDisplay(grp), grp.Guarded, len(grp.Accesses)),
			})
		}
	}
	return out
}

func runGuardEscape(m *Module) []Finding {
	var out []Finding
	for _, grp := range m.Lockset().Groups {
		if grp.Guard == "" {
			continue
		}
		for _, a := range grp.Accesses {
			if a.Escape == lockset.EscapeNone || (!grp.Ref && !a.Addr) {
				continue
			}
			how := "is returned to the caller"
			if a.Escape == lockset.EscapeGo {
				how = "is handed to a goroutine"
			}
			out = append(out, Finding{
				Rule: ruleGuardEscape, Severity: SeverityWarning,
				Pos: a.Unit.Fset.Position(a.Pos),
				Message: fmt.Sprintf("%s (guarded by %s) %s without copy; the reference outlives the critical section — return a copy or document the ownership transfer",
					grp.Display, guardDisplay(grp), how),
			})
		}
	}
	return out
}

// guardDisplay renders the inferred guard with its owning type:
// "member.mu".
func guardDisplay(grp *lockset.Group) string {
	short, _, _ := strings.Cut(grp.Display, ".")
	return short + "." + grp.Guard
}
