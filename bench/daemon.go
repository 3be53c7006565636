package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
)

// children tracks every process the harness starts, with the signal that
// stops it, so a signal to the harness stops them all before it exits
// (Pdeathsig covers a harness that dies without running its handler).
// Whoever starts a child waits for it and then untracks it.
var children struct {
	mu       sync.Mutex
	procs    map[*exec.Cmd]syscall.Signal
	stopping bool // set by stopChildren: no new process starts
}

var errStopping = errors.New("stopping")

func untrack(cmd *exec.Cmd) {
	children.mu.Lock()
	defer children.mu.Unlock()
	delete(children.procs, cmd)
}

// stopChildren signals every tracked process and waits until each has
// been reaped by its waiter, for at most timeout.
func stopChildren(timeout time.Duration) {
	children.mu.Lock()
	children.stopping = true
	for cmd, sig := range children.procs {
		_ = cmd.Process.Signal(sig)
	}
	children.mu.Unlock()
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		children.mu.Lock()
		n := len(children.procs)
		children.mu.Unlock()
		if n == 0 {
			return
		}
	}
}

// startChild starts cmd so that it dies with the harness, and tracks it
// with the signal that stops it.
func startChild(cmd *exec.Cmd, stop syscall.Signal) error {
	children.mu.Lock()
	defer children.mu.Unlock()
	if children.stopping {
		return errStopping
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	if children.procs == nil {
		children.procs = map[*exec.Cmd]syscall.Signal{}
	}
	children.procs[cmd] = stop
	return nil
}

// buildDaemon compiles cmd/infoshieldd from the source tree at root.
func buildDaemon(root, build string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(build, "infoshieldd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/infoshieldd")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := startChild(cmd, syscall.SIGKILL); err != nil {
		return "", fmt.Errorf("go build: %w", err)
	}
	err = cmd.Wait()
	untrack(cmd)
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/infoshieldd: %w\n%s", err, out.String())
	}
	return bin, nil
}

// daemon is one running infoshieldd process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	http   *http.Client
	output bytes.Buffer // stdout+stderr, read only after exit
	exit   *exitStatus
}

// exitStatus is a process's Wait result, valid once done is closed.
type exitStatus struct {
	done chan struct{}
	err  error
}

// waitFor reaps cmd in the background into res.
func waitFor(cmd *exec.Cmd, res *exitStatus) {
	res.err = cmd.Wait()
	untrack(cmd)
	close(res.done)
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

func startDaemon(bin string, args []string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		addr: addr,
		http: &http.Client{Timeout: 60 * time.Second},
		exit: &exitStatus{done: make(chan struct{})},
	}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = &d.output, &d.output
	if err := startChild(d.cmd, syscall.SIGKILL); err != nil {
		return nil, err
	}
	go waitFor(d.cmd, d.exit)
	return d, nil
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-d.exit.done:
			return fmt.Errorf("daemon exited during boot: %v\n%s", d.exit.err, d.output.String())
		default:
		}
		resp, err := c.Get("http://" + d.addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return fmt.Errorf("daemon not healthy after %v: %v", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the daemon and waits for it to exit.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exit.done
	d.http.CloseIdleConnections()
}

// stop sends SIGTERM and waits for the graceful drain; a daemon that
// does not exit within timeout is killed. It returns an error unless the
// daemon exits 0.
func (d *daemon) stop(timeout time.Duration) error {
	d.http.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.exit.done:
	case <-time.After(timeout):
		d.kill()
		return fmt.Errorf("daemon did not exit within %v of SIGTERM", timeout)
	}
	if d.exit.err != nil {
		return fmt.Errorf("daemon exit: %v\n%s", d.exit.err, d.output.String())
	}
	return nil
}

// call performs one control request and decodes a 2xx JSON reply into
// out (when non-nil).
func (d *daemon) call(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, "http://"+d.addr+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, b)
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = b
		return nil
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s %s: decode reply: %w", method, path, err)
	}
	return nil
}

// memCounters are the daemon's cumulative allocation counters.
type memCounters struct {
	totalAlloc, numGC float64
}

// memStats reads TotalAlloc and NumGC from the runtime.MemStats block
// that /debug/pprof/heap?debug=1 appends to the heap profile.
func (d *daemon) memStats() (memCounters, error) {
	var b []byte
	if err := d.call("GET", "/debug/pprof/heap?debug=1", nil, &b); err != nil {
		return memCounters{}, err
	}
	var m memCounters
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			continue
		}
		switch k {
		case "TotalAlloc":
			m.totalAlloc, found = f, found+1
		case "NumGC":
			m.numGC, found = f, found+1
		}
	}
	if found != 2 {
		return m, errors.New("heap profile carries no TotalAlloc/NumGC")
	}
	return m, nil
}

// vmHWM returns a process's peak resident set size in MB.
func vmHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no VmHWM", path)
}
