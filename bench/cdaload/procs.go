package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/reliable-cda/cda/internal/resilience"
)

// proc is one child server process, started in its own process group
// so a kill reaches anything it may have spawned.
type proc struct {
	name string
	args []string // full command line, recorded in the result
	addr string   // host:port it listens on
	cmd  *exec.Cmd
	logs *tailBuffer
	done chan struct{} // closed once Wait has returned
	exit error         // Wait's result, readable after done
}

// tailBuffer keeps the last few KB a child wrote, for failure reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.buf.Len() > 16<<10 {
		t.buf.Reset()
	}
	return t.buf.Write(p)
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.String()
}

// procSet owns every child the harness started; killAll is the one
// exit path (normal return, signal, time-out) that leaves no
// cdaserver behind.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

func (ps *procSet) start(name string, argv []string, addr string) (*proc, error) {
	p := &proc{name: name, args: argv, addr: addr, logs: &tailBuffer{}, done: make(chan struct{})}
	p.cmd = exec.Command(argv[0], argv[1:]...)
	p.cmd.Stdout = p.logs
	p.cmd.Stderr = p.logs
	// Own process group for group kills; Pdeathsig so a SIGKILLed
	// harness still takes its children down.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		defer close(p.done)
		p.exit = p.cmd.Wait()
	}()
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()
	return p, nil
}

// kill SIGKILLs the child's process group and waits until it is gone.
func (p *proc) kill() {
	select {
	case <-p.done:
		return
	default:
	}
	if err := syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL); err != nil && !errors.Is(err, syscall.ESRCH) {
		fmt.Fprintf(os.Stderr, "cdaload: kill %s: %v\n", p.name, err)
	}
	<-p.done
}

// exited describes every child that is no longer running — its exit
// status and the last it logged — for the report of a failed pass: a
// server that died is why its requests failed.
func (ps *procSet) exited() string {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var b strings.Builder
	for _, p := range ps.procs {
		select {
		case <-p.done:
			fmt.Fprintf(&b, "\n%s (pid %d) exited: %v\n%s", p.name, p.cmd.Process.Pid, p.exit, p.logs.String())
		default:
		}
	}
	return b.String()
}

func (ps *procSet) killAll() { ps.killAllBut(nil) }

// killAllBut kills every child but keep, which stays the set's.
func (ps *procSet) killAllBut(keep *proc) {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	if keep != nil {
		ps.procs = []*proc{keep}
	}
	ps.mu.Unlock()
	for _, p := range procs {
		if p != keep {
			p.kill()
		}
	}
}

// statusMB reads one memory line of the child's /proc status, in MB:
// VmRSS, the resident set now, or VmHWM, its high-water mark.
func (p *proc) statusMB(field string) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s of %s: %w", field, p.name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s line for %s", field, p.name)
}

// sampleRSS reads the largest resident set among procs every 20 ms
// until the returned stop is called, which returns the samples (at
// least one: it takes a last one itself).
func sampleRSS(ctx context.Context, clock resilience.Clock, procs []*proc) (stop func() []float64) {
	ctx, cancel := context.WithCancel(ctx)
	out := make(chan []float64, 1)
	read := func() float64 {
		var mb float64
		for _, p := range procs {
			// A child that died has no status left; the pass reports it.
			if v, err := p.statusMB("VmRSS"); err == nil && v > mb {
				mb = v
			}
		}
		return mb
	}
	go func() {
		var xs []float64
		for clock.Sleep(ctx, 20*time.Millisecond) == nil {
			xs = append(xs, read())
		}
		out <- append(xs, read())
	}()
	return func() []float64 {
		cancel()
		return <-out
	}
}

// writeBytes is how many bytes the kernel has charged the child for
// causing to be written to storage so far. It does not depend on how
// fast the disk answered, which is what makes it repeat on a shared
// machine where fsync latency wanders by the minute.
func (p *proc) writeBytes() (float64, error) {
	pid := strconv.Itoa(p.cmd.Process.Pid)
	raw, err := os.ReadFile(filepath.Join("/proc", pid, "io"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			n, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return 0, fmt.Errorf("parse /proc/%s/io: %w", pid, err)
			}
			return n, nil
		}
	}
	return 0, fmt.Errorf("no write_bytes line in /proc/%s/io", pid)
}

// freeAddrs binds n listeners on 127.0.0.1:0 to learn n free ports,
// then releases them for the children to take. All n are held before
// any is released: asked for one at a time, the kernel hands the port
// it has just got back to the next caller, and a primary that has not
// bound yet and its replica end up with the same one (about one
// topology in two thousand).
func freeAddrs(n int) (addrs []string, err error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			if cerr := l.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	for len(ls) < n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// waitHealthy polls url until it answers 200 and ok(body) holds, the
// child exits, or ctx ends.
func waitHealthy(ctx context.Context, clock resilience.Clock, hc *http.Client, p *proc, url string, ok func(body []byte) bool) error {
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming healthy (%v):\n%s", p.name, p.exit, p.logs.String())
		default:
		}
		status, body, err := httpDo(ctx, hc, http.MethodGet, url, nil)
		if err == nil && status == http.StatusOK && (ok == nil || ok(body)) {
			return nil
		}
		if err := clock.Sleep(ctx, time.Millisecond); err != nil {
			return fmt.Errorf("waiting for %s: %w", p.name, err)
		}
	}
}

// buildServers compiles cdaserver and cdarouter from the checkout the
// harness runs in. Build time is never part of a metric.
func buildServers(ctx context.Context, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/cdaserver", "./cmd/cdarouter")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build servers: %w\n%s", err, out)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir, keyed by
// base name as well as in total.
func dirBytes(dir string) (total int64, byName map[string]int64, err error) {
	byName = map[string]int64{}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return ierr
		}
		total += info.Size()
		byName[d.Name()] += info.Size()
		return nil
	})
	return total, byName, err
}
