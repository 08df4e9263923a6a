package analysis

import "fmt"

// LockFlow is the interprocedural companion to unlock-path: it flags
// taking a mutex that the body already holds on the same object —
// directly, or by calling a function that (transitively) locks it —
// the classic self-deadlock that sync.Mutex does not forgive. The
// lockset engine finds them: its must-lockset says what is held at
// each call, each function's summary says what it may lock, mapped
// back through the call's receiver and arguments. Read-lock inside
// read-lock is tolerated; every other combination on the same mutex is
// reported.
var LockFlow = &Analyzer{
	Name:      ruleLockFlow,
	Doc:       "calling a function that re-acquires a mutex the caller already holds (interprocedural self-deadlock)",
	Severity:  SeverityError,
	RunModule: runLockFlow,
}

func runLockFlow(m *Module) []Finding {
	var out []Finding
	for _, r := range m.Lockset().Relocks {
		line := r.Unit.Fset.Position(r.HeldAt).Line
		msg := fmt.Sprintf("%s is re-acquired while already held (acquired at line %d): guaranteed self-deadlock", r.Lock, line)
		if r.Callee != nil {
			msg = fmt.Sprintf("call to %s acquires %s, which is already held here (acquired at line %d): self-deadlock through the call graph",
				r.Callee.Name(), r.Lock, line)
		}
		out = append(out, Finding{Rule: ruleLockFlow, Severity: SeverityError, Pos: r.Unit.Fset.Position(r.Pos), Message: msg})
	}
	return out
}
