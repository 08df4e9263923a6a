package main

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/sessionstore"
)

// TestDrainOnSIGTERM builds cdaserver, starts it on a data directory
// with the default -session-ttl, so the idle sweeper runs, creates a
// session and asks once, and sends SIGTERM: the server must drain, stop
// the sweeper, close the store and exit 0 within 20 s, and the directory
// it leaves must hold the turn.
func TestDrainOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "cdaserver")
	build := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	addr := freeAddr(t)
	dir := filepath.Join(tmp, "data")
	// A file, not a buffer: the server writes it directly, with no copying
	// goroutine for the test's reads to race.
	logs, err := os.Create(filepath.Join(tmp, "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer logs.Close()
	logged := func() string {
		b, _ := os.ReadFile(logs.Name())
		return string(b)
	}
	srv := exec.Command(bin, "-addr", addr, "-data-dir", dir)
	srv.Stdout, srv.Stderr = logs, logs
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- srv.Wait() }()
	waited := false
	defer func() {
		if !waited {
			_ = srv.Process.Kill()
			<-exited
		}
	}()
	base := "http://" + addr
	var id string
	for deadline := time.Now().Add(20 * time.Second); id == ""; {
		select {
		case err := <-exited:
			waited = true
			t.Fatalf("the server exited before serving: %v\n%s", err, logged())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("the server did not answer within 20 s:\n%s", logged())
		}
		resp, err := http.Post(base+"/sessions", "application/json", nil)
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		var created struct{ ID string }
		err = json.NewDecoder(resp.Body).Decode(&created)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("create session: status %d, %v", resp.StatusCode, err)
		}
		id = created.ID
	}
	const question = "how many employment where canton is Zurich"
	resp, err := http.Post(base+"/sessions/"+id+"/ask", "application/json", strings.NewReader(`{"question":"`+question+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask: status %d", resp.StatusCode)
	}

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		waited = true
		if err != nil {
			t.Fatalf("the drained server exited with %v:\n%s", err, logged())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("the server did not exit within 20 s of SIGTERM:\n%s", logged())
	}

	st, err := sessionstore.Open(sessionstore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e, status := st.Get(id)
	if status != sessionstore.Found {
		t.Fatalf("session %s after the drain: status %v", id, status)
	}
	turns, total := e.Turns(0, 10)
	if total != 2 || turns[0].Text != question {
		t.Fatalf("session %s after the drain holds %d turns, %+v; want the one pair", id, total, turns)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 || entries[0].Name() != "vstore" {
		t.Errorf("the drained data dir holds %v (%v), want vstore/ alone", entries, err)
	}
}

// freeAddr is a loopback address no listener holds now.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}
