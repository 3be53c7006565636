package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// job is one request a lane sends. Writes carry their pre-rendered
// request; reads are rendered at send time, because the id they look up
// is drawn from the documents acknowledged so far.
type job struct {
	req  []byte  // rendered request; nil for a read
	ref  int     // writes: index of the request in its step
	pick float64 // reads: position in [0,1) of the id among acked documents
	docs int     // documents in a write
	due  time.Duration
}

// span is one client request as the generator saw it, timed from the
// run's origin. Latency is done−due: a request sent late because the
// system stalled is charged the stall.
type span struct {
	ID     int    `json:"id"`
	Lane   int    `json:"lane"`
	Step   string `json:"step"`
	Read   bool   `json:"read,omitempty"`
	Docs   int    `json:"docs,omitempty"`
	Due    int64  `json:"due_ns"`
	Send   int64  `json:"send_ns"`
	Done   int64  `json:"done_ns"`
	Status int    `json:"status"`
	Err    string `json:"err,omitempty"`

	ref  int    // writes: index of the request in its step
	body []byte // reply body of a write, kept for the output checks
}

func (s *span) ok() bool { return s.Err == "" && s.Status/100 == 2 }

func (s *span) latency() time.Duration { return time.Duration(s.Done - s.Due) }

func (s *span) lateness() time.Duration { return time.Duration(s.Send - s.Due) }

// conn is one keep-alive HTTP/1.1 connection driven by hand: a request is
// one write, and the reply parse allocates only the body it keeps, so
// the generator adds little of its own work to what it measures.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() {
	if c.c != nil {
		_ = c.c.Close()
	}
}

// roundTrip sends req and reads the whole reply; a kept body is a fresh
// slice, otherwise it is read into scratch. After a transport error the
// connection is replaced, so one failure does not fail every later
// request of the lane.
func (c *conn) roundTrip(req []byte, keep bool, scratch *[]byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := dial(c.addr)
		if err != nil {
			return 0, nil, err
		}
		*c = *nc
	}
	status, body, err := c.exchange(req, keep, scratch)
	if err != nil {
		c.close()
		c.c = nil
	}
	return status, body, err
}

var errReply = errors.New("malformed HTTP reply")

func (c *conn) exchange(req []byte, keep bool, scratch *[]byte) (int, []byte, error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("%w: status line %q", errReply, line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("%w: status line %q", errReply, line)
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, nil, fmt.Errorf("%w: header %q", errReply, line)
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("%w: header %q", errReply, line)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	body := (*scratch)[:0]
	if keep {
		body = nil
	}
	switch {
	case chunked:
		body, err = c.readChunked(body)
	case length >= 0:
		if cap(body) < length {
			body = make([]byte, length)
		}
		body = body[:length]
		_, err = io.ReadFull(c.br, body)
	default:
		return 0, nil, fmt.Errorf("%w: no length", errReply)
	}
	if !keep {
		*scratch = body
	}
	return status, body, err
}

func (c *conn) readChunked(body []byte) ([]byte, error) {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%w: chunk size %q", errReply, line)
		}
		if n == 0 {
			// Trailer section: lines up to the blank one.
			for {
				line, err = c.br.ReadSlice('\n')
				if err != nil {
					return nil, err
				}
				if len(bytes.TrimSpace(line)) == 0 {
					return body, nil
				}
			}
		}
		start := len(body)
		body = append(body, make([]byte, n)...)
		if _, err := io.ReadFull(c.br, body[start:]); err != nil {
			return nil, err
		}
		if _, err := c.br.Discard(2); err != nil { // CRLF after the chunk
			return nil, err
		}
	}
}

// renderPost renders a POST /v1/docs request around a JSON body.
func renderPost(body []byte) []byte {
	req := make([]byte, 0, len(body)+128)
	req = append(req, "POST /v1/docs HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	req = strconv.AppendInt(req, int64(len(body)), 10)
	req = append(req, "\r\n\r\n"...)
	return append(req, body...)
}

func renderRead(buf []byte, id int64) []byte {
	buf = append(buf[:0], "GET /v1/assignments/"...)
	buf = strconv.AppendInt(buf, id, 10)
	return append(buf, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
}

// pacer sleeps until due times with syscall.Nanosleep, which overshoots
// by tens of microseconds where time.Sleep overshoots by a millisecond
// on a small VM; the overshoot measured at start-up is subtracted from
// every sleep.
type pacer struct {
	overshoot time.Duration
}

func newPacer() *pacer {
	const probe = 50 * time.Microsecond
	over := make([]float64, 200)
	for i := range over {
		t := time.Now()
		nanosleep(probe)
		over[i] = float64(time.Since(t) - probe)
	}
	return &pacer{overshoot: time.Duration(median(over))}
}

func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		// interrupted: ts holds the remaining time
	}
}

func (p *pacer) sleepUntil(t time.Time) {
	if d := time.Until(t) - p.overshoot; d > 0 {
		nanosleep(d)
	}
}

// lane is one connection's share of a step.
type lane struct {
	conn *conn
	jobs []job
	// open lanes send each job at its due time; closed lanes send the next
	// job as soon as the previous reply arrives.
	open bool
	// reads marks a lane of assignment lookups.
	reads bool
}

// loadRun holds the state shared by all lanes of one workload run.
type loadRun struct {
	origin time.Time
	pacer  *pacer
	// acked counts documents acknowledged in id order; reads look up ids
	// below it. Valid only where one lane writes.
	acked  atomic.Int64
	nextID atomic.Int64 // request ids, unique across the run
}

// runStep runs every lane of one step concurrently and returns their
// spans.
func (r *loadRun) runStep(step string, lanes []lane) []span {
	start := time.Now()
	var wg sync.WaitGroup
	out := make([][]span, len(lanes))
	for li := range lanes {
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			out[li] = r.runLane(step, li, &lanes[li], start)
		}(li)
	}
	wg.Wait()
	var spans []span
	for _, s := range out {
		spans = append(spans, s...)
	}
	return spans
}

func (r *loadRun) runLane(step string, li int, l *lane, start time.Time) []span {
	spans := make([]span, 0, len(l.jobs))
	var readBuf, scratch []byte
	for _, j := range l.jobs {
		due := start.Add(j.due)
		if l.open {
			r.pacer.sleepUntil(due)
		}
		req := j.req
		if l.reads {
			n := max(r.acked.Load(), 1)
			readBuf = renderRead(readBuf, int64(j.pick*float64(n)))
			req = readBuf
		}
		send := time.Now()
		if !l.open {
			due = send
		}
		status, body, err := l.conn.roundTrip(req, !l.reads, &scratch)
		done := time.Now()
		s := span{
			ID: int(r.nextID.Add(1) - 1), Lane: li, Step: step, Read: l.reads, Docs: j.docs,
			Due: int64(due.Sub(r.origin)), Send: int64(send.Sub(r.origin)), Done: int64(done.Sub(r.origin)),
			Status: status, ref: j.ref,
		}
		if err != nil {
			s.Err = err.Error()
		}
		if !l.reads && s.ok() {
			s.body = body
			r.acked.Add(int64(j.docs))
		}
		spans = append(spans, s)
	}
	return spans
}

// rateStats summarizes the windows a workload ran at one fixed rate.
// Each window's median is taken separately and the reported p50 is the
// median of those: a stall (a mining flush, a GC cycle, a neighbour on
// the host) spoils the windows it falls in, not the whole figure.
type rateStats struct {
	p50, readP50    float64 // medians of the window medians, ms
	writes, reads   latencySummary
	lateness        latencySummary // ms
	readsSlow       int            // reads over 1 ms
	failed, windows int
	backlogs        int // windows whose backlog grew
}

func summarizeRate(windows [][]span) rateStats {
	var rs rateStats
	var wl, rl, late []time.Duration
	var wp, rp []float64
	for _, spans := range windows {
		var ww, rw []time.Duration
		for i := range spans {
			s := &spans[i]
			if !s.ok() {
				rs.failed++
			}
			if s.Read {
				rw = append(rw, s.latency())
				if s.latency() > time.Millisecond {
					rs.readsSlow++
				}
				continue
			}
			ww = append(ww, s.latency())
			late = append(late, s.lateness())
		}
		if len(ww) > 0 {
			wp = append(wp, summarize(ww).p50)
		}
		if len(rw) > 0 {
			rp = append(rp, summarize(rw).p50)
		}
		wl, rl = append(wl, ww...), append(rl, rw...)
		if grewBacklog(spans) {
			rs.backlogs++
		}
	}
	rs.windows = len(windows)
	rs.p50, rs.readP50 = median(wp), median(rp)
	rs.writes, rs.reads, rs.lateness = summarize(wl), summarize(rl), summarize(late)
	return rs
}

// grewBacklog compares mean write lateness in the first and last third
// of a window (at most a second each). The backlog grew when the last is
// over 10× the first and over 1 ms; the floor keeps microsecond jitter
// from reading as growth.
func grewBacklog(spans []span) bool {
	var lo, hi int64
	n := 0
	for _, s := range spans {
		if s.Read {
			continue
		}
		if n == 0 || s.Due < lo {
			lo = s.Due
		}
		hi = max(hi, s.Due)
		n++
	}
	if n == 0 {
		return false
	}
	win := min(int64(time.Second), (hi-lo)/3)
	var fs, ls time.Duration
	var fn, ln int
	for _, s := range spans {
		if s.Read {
			continue
		}
		if s.Due <= lo+win {
			fs += s.lateness()
			fn++
		}
		if s.Due >= hi-win {
			ls += s.lateness()
			ln++
		}
	}
	if fn == 0 || ln == 0 {
		return false
	}
	first, last := fs/time.Duration(fn), ls/time.Duration(ln)
	return last > 10*first && last > time.Millisecond
}

func (rs rateStats) String() string {
	s := fmt.Sprintf("%d windows: writes n=%d p50=%.3fms (median of window p50s; pooled %.3fms) p99=%.3fms lateness p50=%.0fus p99=%.0fus",
		rs.windows, rs.writes.n, rs.p50, rs.writes.p50, rs.writes.p99, rs.lateness.p50*1000, rs.lateness.p99*1000)
	if rs.reads.n > 0 {
		s += fmt.Sprintf(" | reads n=%d p50=%.3fms p99=%.3fms >1ms=%.2f%%",
			rs.reads.n, rs.readP50, rs.reads.p99, 100*float64(rs.readsSlow)/float64(rs.reads.n))
	}
	if rs.failed > 0 {
		s += fmt.Sprintf(" | FAILED %d", rs.failed)
	}
	if rs.backlogs > 0 {
		s += fmt.Sprintf(" | backlog grew in %d windows", rs.backlogs)
	}
	return s
}

// capacityRate is the closed-loop phase's throughput: the median docs/s
// over capacityChunks equal slices of its wall-clock, so a stall costs
// the slices it falls in rather than the whole figure.
const capacityChunks = 8

func capacityRate(spans []span) (perSlice, pooled float64) {
	var lo, hi int64
	docs := 0
	for _, s := range spans {
		if s.Read {
			continue
		}
		if docs == 0 || s.Send < lo {
			lo = s.Send
		}
		hi = max(hi, s.Done)
		docs += s.Docs
	}
	if hi <= lo {
		return 0, 0
	}
	chunk := float64(hi-lo) / capacityChunks
	per := make([]float64, capacityChunks)
	for _, s := range spans {
		if s.Read {
			continue
		}
		k := min(int(float64(s.Done-lo)/chunk), capacityChunks-1)
		per[k] += float64(s.Docs)
	}
	for k := range per {
		per[k] /= chunk / float64(time.Second)
	}
	return median(per), float64(docs) / (float64(hi-lo) / float64(time.Second))
}
