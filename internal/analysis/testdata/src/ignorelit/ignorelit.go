// Package fixture is regression input for cdalint:ignore directive
// scoping around function literals and select cases, checked against
// a CFG-based rule (resource-leak). The contract under test: a
// directive attached to a spawning statement (go/defer) covers the
// statement header only — never the literal's body — so suppressions
// inside a literal must sit on the offending lines themselves, and
// end-of-line placement works inside select case arms.
package fixture

import "os"

// spawnLeaky: the directive on the go statement must NOT reach the
// Open inside the literal body — the finding below survives.
func spawnLeaky(name string, done chan struct{}) {
	// cdalint:ignore resource-leak -- attached to the spawning statement; must not cover the body
	go func() {
		f, err := os.Open(name)
		if err != nil {
			return
		}
		f.Stat()
		close(done)
	}()
}

// spawnSuppressed: the directive inside the literal, on the line
// above the acquisition, suppresses it.
func spawnSuppressed(name string, done chan struct{}) {
	go func() {
		// cdalint:ignore resource-leak -- deliberately kept; the collector closes it at teardown
		f, err := os.Open(name)
		if err != nil {
			return
		}
		f.Stat()
		close(done)
	}()
}

// selectArms: end-of-line placement inside one case arm suppresses
// that acquisition only; the default arm's identical leak is
// reported.
func selectArms(name string, ch chan int) int {
	select {
	case v := <-ch:
		f, err := os.Open(name) // cdalint:ignore resource-leak -- probe path measured with the file open
		if err != nil {
			return 0
		}
		f.Stat()
		return v
	default:
		f, err := os.Open(name)
		if err != nil {
			return 0
		}
		f.Stat()
		return 1
	}
}

// deferClosure: same boundary for deferred literals — the directive
// on the defer statement covers its header, not the body.
func deferClosure(name string) {
	// cdalint:ignore resource-leak -- attached to the defer statement; must not cover the body
	defer func() {
		f, err := os.Open(name)
		if err != nil {
			return
		}
		f.Stat()
	}()
}
