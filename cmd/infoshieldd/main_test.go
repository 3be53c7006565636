package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"infoshield/internal/serve"
)

// freePort reserves an ephemeral port and releases it for the daemon.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// devNull returns a writable sink file.
func devNull(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestDaemonLifecycle boots the daemon, feeds it documents over HTTP,
// shuts it down with SIGTERM, and verifies the drain protocol left a
// loadable state snapshot behind.
func TestDaemonLifecycle(t *testing.T) {
	addr := freePort(t)
	statePath := filepath.Join(t.TempDir(), "state.json")
	sink := devNull(t)

	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-state", statePath}, sink, sink)
	}()

	base := "http://" + addr
	waitHealthy(t, base, done)

	// 3 campaign near-duplicates + 4 noise docs: enough idf contrast for
	// the shutdown flush to mine one template from the buffer.
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"text":"limited offer buy the premium golden package today visit site%04d.example now"}`, i)
		postOK(t, base+"/v1/docs", body)
	}
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"text":"nq%da nq%db nq%dc nq%dd nq%de nq%df"}`, i, i, i, i, i, i)
		postOK(t, base+"/v1/docs", body)
	}

	// SIGTERM: the daemon must drain, flush the buffered docs, snapshot,
	// and exit 0.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exited %d", code)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}

	checkSnapshot(t, statePath, 1)
}

// checkSnapshot boots a fresh sharded detector set from the manifest the
// drain left behind and verifies the shutdown flush mined templates.
func checkSnapshot(t *testing.T, statePath string, shards int) {
	t.Helper()
	if _, err := os.Stat(statePath); err != nil {
		t.Fatalf("no state snapshot after shutdown: %v", err)
	}
	sh, err := serve.NewSharded(serve.ShardedConfig{Shards: shards, StatePath: statePath})
	if err != nil {
		t.Fatalf("snapshot does not load: %v", err)
	}
	defer sh.Close()
	tmpls, err := sh.Templates()
	if err != nil {
		t.Fatal(err)
	}
	if len(tmpls) == 0 {
		t.Error("shutdown flush mined no template")
	}
}

// TestDaemonShardedLifecycle runs the daemon with multiple shards and a
// write-ahead log: ingest, SIGTERM drain, then verify the manifest loads
// with the right shard count and the WALs were truncated.
func TestDaemonShardedLifecycle(t *testing.T) {
	addr := freePort(t)
	dir := t.TempDir()
	statePath := filepath.Join(dir, "state.json")
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	sink := devNull(t)

	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-state", statePath,
			"-shards", "2", "-wal-dir", walDir}, sink, sink)
	}()

	base := "http://" + addr
	waitHealthy(t, base, done)

	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(`{"text":"limited offer buy the premium golden package today visit site%04d.example now"}`, i)
		postOK(t, base+"/v1/docs", body)
	}
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"text":"nq%da nq%db nq%dc nq%dd nq%de nq%df"}`, i, i, i, i, i, i)
		postOK(t, base+"/v1/docs", body)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exited %d", code)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}

	checkSnapshot(t, statePath, 2)
	for k := 0; k < 2; k++ {
		info, err := os.Stat(filepath.Join(walDir, fmt.Sprintf("wal-%d.log", k)))
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != 0 {
			t.Errorf("wal-%d not truncated by drain: %d bytes", k, info.Size())
		}
	}
}

// TestDaemonSlowHeaders checks the header timeout on four connections
// dialed together. Two send half a request header and stall, one as its
// first request and one after a served request: the daemon must close
// both within readHeaderTimeout, not hold them open forever. One sends
// nothing for longer than readHeaderTimeout, as a client that dials ahead
// does, and must then be served. One is served at once and again after
// an idle wait longer than readHeaderTimeout.
func TestDaemonSlowHeaders(t *testing.T) {
	addr := freePort(t)
	sink := devNull(t)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", addr}, sink, sink)
	}()
	waitHealthy(t, "http://"+addr, done)

	var conns [4]net.Conn
	var brs [4]*bufio.Reader
	for i := range conns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i], brs[i] = c, bufio.NewReader(c)
	}
	start := time.Now()
	postRaw(t, conns[1], brs[1], addr, "served before stalling")
	postRaw(t, conns[3], brs[3], addr, "served at once")
	for _, c := range conns[:2] {
		if _, err := io.WriteString(c, "POST /v1/docs HTTP/1.1\r\nHost: "+addr+"\r\nContent-"); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range conns[:2] {
		if err := c.SetReadDeadline(start.Add(readHeaderTimeout + 2*time.Second)); err != nil {
			t.Fatal(err)
		}
		// Whatever the daemon answers, it must then close the connection.
		_, err := io.Copy(io.Discard, brs[i])
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("connection %d with unfinished headers still open after %v", i, time.Since(start))
		}
	}

	time.Sleep(time.Until(start.Add(readHeaderTimeout + time.Second)))
	postRaw(t, conns[2], brs[2], addr, "first request after an idle wait")
	postRaw(t, conns[3], brs[3], addr, "kept-alive request after an idle wait")

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exited %d", code)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// postRaw writes one document POST on c and requires a 200 reply, read
// through br.
func postRaw(t *testing.T, c net.Conn, br *bufio.Reader, addr, what string) {
	t.Helper()
	body := `{"text":"big sale call now"}`
	req := fmt.Sprintf("POST /v1/docs HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		addr, len(body), body)
	if _, err := io.WriteString(c, req); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", what, resp.StatusCode)
	}
}

func TestDaemonBadFlags(t *testing.T) {
	sink := devNull(t)
	if code := run([]string{"-nope"}, sink, sink); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"positional"}, sink, sink); code != 2 {
		t.Errorf("positional arg: exit %d, want 2", code)
	}
	// Every shard's detector sizes its worker pool to GOMAXPROCS; the
	// daemon has no -workers flag.
	if code := run([]string{"-workers", "2"}, sink, sink); code != 2 {
		t.Errorf("-workers 2: exit %d, want 2", code)
	}
}

// TestDaemonNegativeFlags: a negative count flag exits 2 with the usage
// text before anything starts; a negative cap or TTL would otherwise
// switch its bound off. The state file is corrupt, so a daemon that
// accepted the flag would exit 1 at boot instead of serving.
func TestDaemonNegativeFlags(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(state, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"-max-templates", "-template-ttl", "-mine-batch"} {
		stderr, err := os.Create(filepath.Join(dir, "stderr"+name))
		if err != nil {
			t.Fatal(err)
		}
		code := run([]string{"-state", state, name, "-1"}, devNull(t), stderr)
		stderr.Close()
		out, err := os.ReadFile(stderr.Name())
		if err != nil {
			t.Fatal(err)
		}
		if code != 2 || !strings.Contains(string(out), "usage: infoshieldd") {
			t.Errorf("%s -1: exit %d, stderr %q; want 2 and the usage text", name, code, out)
		}
	}
}

func TestDaemonBadStateFile(t *testing.T) {
	sink := devNull(t)
	path := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-state", path}, sink, sink); code != 1 {
		t.Errorf("corrupt state: exit %d, want 1", code)
	}
}

// TestDaemonListenFailure holds the -addr port with another listener: the
// daemon's listen fails before any signal, and run must report it and
// return 1 rather than wait for a signal that never comes.
func TestDaemonListenFailure(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sink := devNull(t)

	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", l.Addr().String()}, sink, sink)
	}()
	select {
	case code := <-done:
		if code != 1 {
			t.Fatalf("port in use: exit %d, want 1", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not return after its listen failed")
	}
}

// waitHealthy polls /healthz until the daemon answers (or it exited).
func waitHealthy(t *testing.T, base string, done <-chan int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case code := <-done:
			t.Fatalf("daemon exited %d before becoming healthy", code)
		default:
		}
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}

func postOK(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
}
