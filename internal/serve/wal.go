package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// wal is one shard's write-ahead log: an append-only file of JSON-lines
// records, one per document, written by the shard's group-commit leader
// through the Coalescer's WAL hook — all of a batch's records, one
// buffered flush, one fsync, then the batch is acked. Because the hook
// fires once per group commit, WAL batching rides the coalescer's
// natural batching: under load, many documents share one fsync.
//
// Durability contract: a record is on disk before its submitter sees a
// verdict, so a crash between snapshots loses nothing that was acked
// (documents in a batch cut down by the crash were never acked). Replay
// on boot re-ingests records at or above the snapshot's high-water mark
// in id order; a torn tail — the partial line a mid-append crash leaves
// — is detected, dropped, and truncated away so appends resume cleanly.
//
// The log is only truncated by graceful drain, after the final snapshot
// commits; live snapshots leave it intact and replay simply skips the
// records the snapshot already absorbed.
type wal struct {
	path string
	f    *os.File
	w    *bufio.Writer
	sync bool

	// recs is append's record scratch, guarded by the commit lock.
	recs []walRecord

	// Counters are atomics: appended under the shard's commit lock, read
	// by Stats, which holds only the accept gate.
	records  atomic.Int64
	batches  atomic.Int64
	flushes  atomic.Int64
	bytes    atomic.Int64
	syncs    atomic.Int64
	replayed atomic.Int64
	errs     atomic.Int64
}

// WALStats is the per-shard write-ahead-log block of /v1/stats.
type WALStats struct {
	// Records and Bytes count what this process appended (replayed
	// records are not re-appended; Replayed counts those separately).
	Records int64 `json:"records"`
	// Batches counts WAL-hook invocations — group commits — and Syncs
	// the fsyncs issued (equal unless fsync is disabled). Records/Batches
	// is the WAL's amortization factor.
	Batches int64 `json:"batches"`
	// Flushes counts explicit flush markers logged (operator-triggered
	// mining passes are part of the event sequence replay reproduces).
	Flushes int64 `json:"flushes"`
	Bytes   int64 `json:"bytes"`
	Syncs   int64 `json:"syncs"`
	// Replayed counts records re-ingested at boot.
	Replayed int64 `json:"replayed"`
	// Errors counts append/fsync failures (durability degraded).
	Errors int64 `json:"errors"`
}

// walRecord is one logged event: a document (shard-local id + raw text)
// or an explicit flush marker. Everything else (tokenization, verdict,
// template state) is a deterministic function of the event sequence —
// detector auto-flushes at BatchSize are reproduced by the replayed
// Adds themselves, but operator-triggered flushes change the assignment
// map (pending documents get mined early), so they are logged and
// re-executed to reproduce the exact pre-crash state.
type walRecord struct {
	ID    int    `json:"id"`
	Text  string `json:"text,omitempty"`
	Flush bool   `json:"flush,omitempty"`
}

// openWAL opens (creating if absent) the shard WAL at path, replays
// records with id >= hwm into det — verifying the detector reassigns
// exactly the logged ids — truncates any torn tail, and leaves the file
// positioned for appends. det must be rebased (SetNextID) to hwm before
// the call.
func openWAL(path string, det detectorReplay, hwm int, fsync bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	w := &wal{path: path, f: f, sync: fsync}
	good, replayed, err := w.replay(det, hwm)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	// Drop the torn tail (and anything after a corrupt line) so the next
	// append starts at a record boundary.
	if err := f.Truncate(good); err != nil {
		_ = f.Close()
		return nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, err
	}
	w.replayed.Store(int64(replayed))
	w.w = bufio.NewWriter(f)
	return w, nil
}

// detectorReplay is the slice of stream.Detector replay needs; a narrow
// interface keeps openWAL testable against a recording stub.
type detectorReplay interface {
	Add(text string) int
	Flush()
}

// replay scans the log from the start, feeding records at or above hwm
// to det in file order (which is id order: appends run under the
// shard's commit lock).
// It returns the byte offset just past the last intact record. A record
// that fails to parse ends the scan — the torn-tail model: the only
// expected corruption is a partial final line from a crash mid-append.
//
// Flush markers carry no id; one is re-executed only when the scan has
// replayed a document past hwm (pos > hwm). Markers at or before the
// boundary are skipped: their effect is folded into the snapshot, and a
// marker exactly at the boundary acted on a state the snapshot wrote
// already flushed — a no-op either way.
func (w *wal) replay(det detectorReplay, hwm int) (good int64, replayed int, err error) {
	r := bufio.NewReader(w.f)
	pos := 0 // next expected document id
	for {
		line, rerr := r.ReadBytes('\n')
		if rerr == io.EOF {
			// A byte run with no newline is a torn tail: not replayed, and
			// truncated by the caller.
			return good, replayed, nil
		}
		if rerr != nil {
			return 0, 0, rerr
		}
		var rec walRecord
		if json.Unmarshal(line, &rec) != nil {
			return good, replayed, nil
		}
		good += int64(len(line))
		if rec.Flush {
			if pos > hwm {
				det.Flush()
			}
			continue
		}
		pos = rec.ID + 1
		if rec.ID < hwm {
			continue // already absorbed by the snapshot
		}
		if got := det.Add(rec.Text); got != rec.ID {
			return 0, 0, fmt.Errorf(
				"serve: wal %s: replayed document got id %d, log says %d (state/log mismatch)",
				w.path, got, rec.ID)
		}
		replayed++
	}
}

// append logs one committed batch: every record, one writer flush, one
// fsync (policy permitting). The shard's group-commit leader calls it
// through the Coalescer's WAL hook, before the batch's submitters are
// acked.
func (w *wal) append(ids []int, texts []string) error {
	recs := w.recs[:0]
	for i := range ids {
		recs = append(recs, walRecord{ID: ids[i], Text: texts[i]})
	}
	w.recs = recs[:0]
	if err := w.write(recs); err != nil {
		return err
	}
	w.records.Add(int64(len(ids)))
	w.batches.Add(1)
	return nil
}

// appendFlush logs an explicit flush marker. Called under the shard's
// commit lock right after the flush runs, so the marker sits exactly
// where the flush does in the event sequence.
func (w *wal) appendFlush() error {
	if err := w.write([]walRecord{{Flush: true}}); err != nil {
		return err
	}
	w.flushes.Add(1)
	return nil
}

// write appends recs as JSON lines, flushes the buffered writer, and
// fsyncs (policy permitting). Any failure counts as a WAL error.
func (w *wal) write(recs []walRecord) (err error) {
	defer func() {
		if err != nil {
			w.errs.Add(1)
		}
	}()
	n := int64(0)
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if _, err := w.w.Write(b); err != nil {
			return err
		}
		if err := w.w.WriteByte('\n'); err != nil {
			return err
		}
		n += int64(len(b)) + 1
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return err
		}
		w.syncs.Add(1)
	}
	w.bytes.Add(n)
	return nil
}

// truncate empties the log. Only called after a drain snapshot has
// committed (so every logged record is absorbed by the on-disk state)
// and after the accept gate has closed (so no append races it).
func (w *wal) truncate() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return w.f.Sync()
}

// close flushes buffered appends and closes the file.
func (w *wal) close() error {
	err := w.w.Flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// stats snapshots the counters.
func (w *wal) stats() WALStats {
	return WALStats{
		Records:  w.records.Load(),
		Batches:  w.batches.Load(),
		Flushes:  w.flushes.Load(),
		Bytes:    w.bytes.Load(),
		Syncs:    w.syncs.Load(),
		Replayed: w.replayed.Load(),
		Errors:   w.errs.Load(),
	}
}
