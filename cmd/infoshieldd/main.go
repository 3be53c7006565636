// Command infoshieldd serves the streaming InfoShield detector over
// HTTP/JSON. Concurrent single-document requests are transparently
// coalesced into detector batches (leader-follower group commit: the
// first waiting request commits every request queued behind it), and
// -shards splits the detector into S independent shards — each with its
// own commit lock, group-commit queue, and write-ahead log — routed by a
// hash or language key computed from the token stream.
//
// Endpoints:
//
//	POST /v1/docs             {"text": "..."} or {"texts": ["...", ...]}
//	GET  /v1/assignments/{id} 404 for an id never issued
//	GET  /v1/templates
//	GET  /v1/stats            per-shard blocks plus the rolled-up total
//	POST /v1/flush
//	POST /v1/snapshot         to -state, or the state as the body
//	GET  /healthz
//	GET  /debug/pprof/...
//
// On SIGINT/SIGTERM the daemon stops accepting connections, waits for
// in-flight requests, closes every shard to new work, and — when
// -state is set — mines the remaining buffers, snapshots the manifest,
// and truncates the write-ahead logs before exiting.
//
// Example:
//
//	infoshieldd -addr :8743 -shards 4 -wal-dir /var/lib/infoshield/wal \
//	    -state /var/lib/infoshield/state.json &
//	curl -s localhost:8743/v1/docs -d '{"text":"big sale call now"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"infoshield/internal/core"
	"infoshield/internal/serve"
	"infoshield/internal/stream"
)

// readHeaderTimeout bounds a request's headers from their first byte, so a
// client that never finishes them cannot hold a connection forever. No
// other server timeout is set: pprof profiles stream for 30 s, and
// keep-alive clients may idle.
const readHeaderTimeout = 5 * time.Second

// firstByteListener lets a new connection idle before its first request
// as a kept-alive one may before its next: net/http arms
// ReadHeaderTimeout at accept for a first request.
type firstByteListener struct{ *net.TCPListener }

func (l firstByteListener) Accept() (net.Conn, error) {
	c, err := l.AcceptTCP()
	if err != nil {
		return nil, err
	}
	return &firstByteConn{TCPConn: c}, nil
}

// firstByteConn waits for its first byte with no deadline. net/http runs
// no other goroutine on the connection before its first request is read.
type firstByteConn struct {
	*net.TCPConn
	started bool
}

func (c *firstByteConn) Read(p []byte) (int, error) {
	if c.started {
		return c.TCPConn.Read(p)
	}
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		return 0, err
	}
	n, err := c.TCPConn.Read(p)
	if n > 0 {
		c.started = true
		err = errors.Join(err, c.SetReadDeadline(time.Now().Add(readHeaderTimeout)))
	}
	return n, err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so tests can drive it.
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("infoshieldd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8743", "listen address")
	state := fs.String("state", "", "state file: loaded at startup if present, snapshotted on shutdown and by POST /v1/snapshot")
	shards := fs.Int("shards", 1, "detector shard count; each shard has its own commit lock, coalescer, and WAL")
	route := fs.String("route", serve.RouteHash, `shard routing: "hash" (balanced) or "lang" (keeps each language's templates on one shard)`)
	walDir := fs.String("wal-dir", "", "write-ahead-log directory: every acked document is logged (and fsynced) before its verdict returns, and replayed on boot")
	mineBatch := fs.Int("mine-batch", 0, "buffered documents that trigger a mining pass (0 = detector default 512)")
	maxTemplates := fs.Int("max-templates", 0, "per-shard live-template cap; the least-recently-matched templates are evicted past it (0 = unbounded)")
	templateTTL := fs.Int("template-ttl", 0, "retire a template after this many ingested documents without a match (0 = never)")
	mergeTemplates := fs.Bool("merge-templates", false, "fold freshly mined templates into existing near-duplicates when the MDL cost favors one template")
	incrementalMine := fs.Bool("incremental-mine", false, "keep recent unmatched documents and their document-frequency counts across flushes, so a later mining pass can still cluster them with new documents")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A negative cap or TTL would silently switch its bound off (only a
	// positive value enables one), so every count flag must be 0 or more.
	negative := min(*mineBatch, *maxTemplates, *templateTTL) < 0
	if negative {
		fmt.Fprintln(stderr, "infoshieldd: -mine-batch, -max-templates and -template-ttl must not be negative")
	}
	if negative || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: infoshieldd [flags]")
		fs.PrintDefaults()
		return 2
	}

	sh, err := serve.NewSharded(serve.ShardedConfig{
		Shards:    *shards,
		Route:     *route,
		WALDir:    *walDir,
		StatePath: *state,
		NewDetector: func() *stream.Detector {
			det := stream.New(core.Options{})
			if *mineBatch > 0 {
				det.BatchSize = *mineBatch
			}
			det.Lifecycle = stream.Lifecycle{
				MaxTemplates: *maxTemplates,
				TTL:          *templateTTL,
				Merge:        *mergeTemplates,
				Incremental:  *incrementalMine,
			}
			return det
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "infoshieldd:", err)
		return 1
	}

	srv := &http.Server{
		Handler:           serve.NewServer(sh, *state).Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(stdout, "infoshieldd: listening on %s (%d shards, route=%s)\n",
			*addr, sh.Shards(), sh.Route())
		ln, err := net.Listen("tcp", *addr)
		if err == nil {
			err = srv.Serve(firstByteListener{ln.(*net.TCPListener)})
		}
		errc <- err
	}()

	select {
	case err := <-errc:
		// Listen failed before any signal: nothing to drain.
		fmt.Fprintln(stderr, "infoshieldd:", err)
		_ = sh.Close()
		return 1
	case <-ctx.Done():
	}

	// Shutdown protocol: stop accepting connections and wait for in-flight
	// HTTP requests (whose Submits must pass the accept gate before it
	// closes), then hand off to Drain — which closes the gate, mines
	// every shard's buffer, snapshots the manifest when -state is set,
	// and truncates the WALs only after the manifest commits.
	fmt.Fprintln(stdout, "infoshieldd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(stderr, "infoshieldd: shutdown:", err)
	}
	code := 0
	if err := sh.Drain(*state); err != nil {
		fmt.Fprintln(stderr, "infoshieldd: drain:", err)
		code = 1
	} else if *state != "" {
		fmt.Fprintf(stdout, "infoshieldd: snapshotted state to %s\n", *state)
	}
	return code
}
