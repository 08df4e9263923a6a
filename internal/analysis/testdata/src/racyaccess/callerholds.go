package fixture

import "sync"

// ledger exercises the caller-holds precondition: a helper is analyzed
// with the locks every one of its call sites holds, so a "caller holds
// l.mu" comment needs no suppression when it is true — and buys
// nothing when it is not, or when a caller cannot be checked.
type ledger struct {
	mu      sync.RWMutex
	entries map[string]int
	total   int
	seq     int
	last    string
}

// Every caller of these three holds l.mu (get only for reading, which
// counts), and putLocked reaches reindexLocked under the same lock:
// entries is never touched outside a helper and draws no finding.
func (l *ledger) putLocked(k string, v int) {
	l.entries[k] = v
	l.reindexLocked()
}

func (l *ledger) reindexLocked() { l.entries["#"] = len(l.entries) }

func (l *ledger) getLocked(k string) int { return l.entries[k] }

func (l *ledger) put(k string, v int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.putLocked(k, v)
}

func (l *ledger) replace(k string, v int) {
	l.mu.Lock()
	l.putLocked(k, v)
	l.mu.Unlock()
}

func (l *ledger) get(k string) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.getLocked(k)
}

// addLocked has three callers and one of them forgot: the intersection
// is empty, the helper's own access is the finding.
func (l *ledger) addLocked(n int) { l.total += n }

func (l *ledger) add(n int) {
	l.mu.Lock()
	l.addLocked(n)
	l.mu.Unlock()
}

func (l *ledger) addTwice(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addLocked(2 * n)
}

func (l *ledger) sloppyAdd(n int) { l.addLocked(n) }

func (l *ledger) sum() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.total
}

func (l *ledger) reset() {
	l.mu.Lock()
	l.total = 0
	l.total = len(l.entries)
	l.mu.Unlock()
}

// BumpLocked has addLocked's shape and a caller that holds the lock,
// but it is exported: other packages call it too, nothing is assumed.
func (l *ledger) BumpLocked() { l.seq++ }

func (l *ledger) bump() {
	l.mu.Lock()
	l.BumpLocked()
	l.mu.Unlock()
}

func (l *ledger) seqNow() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.seq
}

func (l *ledger) rewind() {
	l.mu.Lock()
	l.seq = 0
	l.seq = l.total
	l.mu.Unlock()
}

// noteLocked is called under the lock and also handed out as a method
// value; whoever ends up calling that is not a call site, so nothing is
// assumed here either.
func (l *ledger) noteLocked(s string) { l.last = s }

func each(ss []string, f func(string)) {
	for _, s := range ss {
		f(s)
	}
}

func (l *ledger) note(ss []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.noteLocked("batch")
	each(ss, l.noteLocked)
}

func (l *ledger) lastNote() string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.last
}

func (l *ledger) clearNote() {
	l.mu.Lock()
	l.last = ""
	l.last = "cleared"
	l.mu.Unlock()
}
