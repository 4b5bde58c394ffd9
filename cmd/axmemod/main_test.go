package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"axmemo/internal/cli"
)

// addrCapture scans the daemon's stderr for the "serving on" line and
// publishes the bound address once.
type addrCapture struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	ch   chan string
	once sync.Once
}

var servingRE = regexp.MustCompile(`serving on http://(\S+)`)

func newAddrCapture() *addrCapture { return &addrCapture{ch: make(chan string, 1)} }

func (c *addrCapture) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf.Write(p)
	if m := servingRE.FindSubmatch(c.buf.Bytes()); m != nil {
		addr := string(m[1])
		c.once.Do(func() { c.ch <- addr })
	}
	return len(p), nil
}

func (c *addrCapture) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.String()
}

// startDaemon runs the command in-process on an ephemeral port and
// returns its base URL plus the exit channel.
func startDaemon(t *testing.T, extra ...string) (base string, done chan error, errOut *addrCapture) {
	t.Helper()
	errOut = newAddrCapture()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	done = make(chan error, 1)
	go func() { done <- run(args, io.Discard, errOut) }()
	select {
	case addr := <-errOut.ch:
		return "http://" + addr, done, errOut
	case err := <-done:
		t.Fatalf("daemon exited before serving: %v\n%s", err, errOut)
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never started serving\n%s", errOut)
	}
	panic("unreachable")
}

// sigterm asks the daemon (this process) to shut down and waits for a
// clean, signal-coded exit.
func sigterm(t *testing.T, done chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, cli.ErrSignaled) {
			t.Fatalf("daemon exit = %v, want ErrSignaled", err)
		}
		if code := cli.ExitCode(err); code != 0 {
			t.Fatalf("exit code = %d, want 0", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
}

// TestDaemonLifecycle boots the daemon against a store directory,
// exercises the API, drains it with SIGTERM, and checks the store and
// metrics snapshot survive — then a second daemon over the same store
// serves the identical simulation as a cache hit.
func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	metrics := filepath.Join(dir, "metrics.json")

	base, done, errOut := startDaemon(t, "-store-dir", storeDir, "-metrics-out", metrics)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	simulate := func() (cached bool) {
		resp, err := http.Post(base+"/v1/simulate", "application/json",
			strings.NewReader(`{"benchmark":"sobel"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate: %d", resp.StatusCode)
		}
		var out struct {
			Cached bool `json:"cached"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Cached
	}
	if simulate() {
		t.Fatal("first simulate claimed a cache hit on an empty store")
	}
	sigterm(t, done)

	blobs, err := filepath.Glob(filepath.Join(storeDir, "*.json"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("store blobs not persisted: %v (%v)", blobs, err)
	}
	snap, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("metrics snapshot not written: %v", err)
	}
	if !strings.Contains(string(snap), "store_misses_total") {
		t.Fatalf("metrics snapshot missing store families:\n%s", snap)
	}

	// Restart over the same store: the same request is a disk hit.
	base2, done2, _ := startDaemon(t, "-store-dir", storeDir)
	if !simulateAt(t, base2) {
		t.Fatal("restarted daemon did not serve the simulation from the store")
	}
	sigterm(t, done2)
	_ = errOut
}

// TestDaemonSlowHeader: a raw TCP client that stalls mid-header is
// disconnected once cli.ReadHeaderTimeout passes, and /healthz keeps
// answering other clients meanwhile.
func TestDaemonSlowHeader(t *testing.T) {
	base, done, _ := startDaemon(t)
	start := time.Now() // no later than the server starts its header clock
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: axmemod\r\nX-Stalled: "); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz beside a stalled client: %d", resp.StatusCode)
	}

	// The server closes the connection without a response; a read
	// deadline expiring first means it was never disconnected.
	if err := conn.SetReadDeadline(time.Now().Add(cli.ReadHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled client not disconnected: %v", err)
	}
	if elapsed := time.Since(start); elapsed < cli.ReadHeaderTimeout {
		t.Fatalf("stalled client disconnected after %v, before the %v header timeout", elapsed, cli.ReadHeaderTimeout)
	}
	sigterm(t, done)
}

func simulateAt(t *testing.T, base string) bool {
	t.Helper()
	resp, err := http.Post(base+"/v1/simulate", "application/json",
		strings.NewReader(`{"benchmark":"sobel"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d", resp.StatusCode)
	}
	var out struct {
		Cached bool `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Cached
}

// TestDaemonBadFlags: flag mistakes are usage errors (exit 2), before
// any listener is bound.
func TestDaemonBadFlags(t *testing.T) {
	var errBuf bytes.Buffer
	err := run([]string{"-bogus"}, io.Discard, &errBuf)
	if cli.ExitCode(err) != 2 {
		t.Fatalf("bad flag: exit %d (err %v), want 2", cli.ExitCode(err), err)
	}
	err = run([]string{"-addr", "not an address"}, io.Discard, &errBuf)
	if err == nil || cli.ExitCode(err) != 1 {
		t.Fatalf("bad addr: err %v, want bind failure", err)
	}
}
