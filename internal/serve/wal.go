package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// wal is one shard's write-ahead log: an append-only file of JSON-lines
// records, one per document, written by the shard's group-commit leader
// — all of a batch's records in one write, one fsync, then the batch
// is acked. Because the leader appends once per group commit, WAL
// batching rides the shard's natural batching: under load, many
// documents share one fsync.
//
// Durability contract: a record is on disk before its submitter sees a
// verdict, so a crash between snapshots loses nothing that was acked
// (documents in a batch cut down by the crash were never acked). Replay
// on boot re-ingests, in id order, the records at or above the document
// count of the snapshot's state (its high-water mark); a torn tail — the partial line a mid-append crash leaves
// — is detected, dropped, and truncated away so appends resume cleanly.
//
// The log is only truncated by graceful drain, after the final snapshot
// commits; live snapshots leave it intact and replay simply skips the
// records the snapshot already absorbed. A failed append is rolled back
// to the end of the last commit written whole, so it leaves no partial
// line behind and later appends still reach the file.
type wal struct {
	path string
	f    walFile
	// end is the offset just past the last commit written whole: where
	// the next append starts and where a failed one rolls back to.
	end int64

	// buf holds the commit being encoded, through enc; both are guarded
	// by the commit lock. Nothing stays in buf between commits.
	buf bytes.Buffer
	enc *json.Encoder

	// Counters are added under the shard's commit lock and read by
	// shard.stats under its read side.
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
	// Batches counts appended group commits and Syncs the fsyncs
	// issued, one per append or flush marker. Records/Batches is the
	// WAL's amortization factor.
	Batches int64 `json:"batches"`
	// Flushes counts explicit flush markers logged (operator-triggered
	// mining passes are part of the event sequence replay reproduces).
	Flushes int64 `json:"flushes"`
	Bytes   int64 `json:"bytes"`
	Syncs   int64 `json:"syncs"`
	// Replayed counts records re-ingested at boot.
	Replayed int64 `json:"replayed"`
	// Errors counts failed appends (their records are not on disk) and
	// failed fsyncs.
	Errors int64 `json:"errors"`
}

// walRecord is one logged event: a document (shard-local id + raw text)
// or an explicit flush marker. Everything else (tokenization, verdict,
// template state) is a deterministic function of the event sequence —
// detector auto-flushes at BatchSize are reproduced by the replayed
// Adds themselves, but operator-triggered flushes change verdicts
// (pending documents get mined early), so they are logged and
// re-executed to reproduce the exact pre-crash state.
type walRecord struct {
	ID    int    `json:"id"`
	Text  string `json:"text,omitempty"`
	Flush bool   `json:"flush,omitempty"`
}

// walFile is the file under a wal. *os.File satisfies it; tests
// substitute an in-memory file or wrap the opened one.
type walFile interface {
	io.ReadWriteSeeker
	io.Closer
	Truncate(size int64) error
	Sync() error
}

// newWAL returns a log that appends to f from its current offset.
func newWAL(path string, f walFile) *wal {
	w := &wal{path: path, f: f}
	w.enc = json.NewEncoder(&w.buf)
	return w
}

// openWAL opens (creating if absent) the shard WAL at path, replays
// records with id >= hwm into det — verifying the detector reassigns
// exactly the logged ids — truncates any torn tail, and leaves the file
// positioned for appends. hwm is det's document count (its NextID): the
// records below it are already in det's restored state.
func openWAL(path string, det detectorReplay, hwm int) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	w := newWAL(path, f)
	good, replayed, err := w.replay(det, hwm)
	if err == nil {
		// Drop the torn tail (and anything after a corrupt line) so the
		// next append starts at a record boundary.
		err = w.rewind(good)
	}
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	w.replayed.Store(int64(replayed))
	return w, nil
}

// rewind truncates the file to off and moves the append offset there.
func (w *wal) rewind(off int64) error {
	if err := w.f.Truncate(off); err != nil {
		return err
	}
	if _, err := w.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	w.end = off
	return nil
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

// append logs one committed batch: every record, one write, one fsync.
// The shard's group-commit leader calls it before the batch's
// submitters are acked.
func (w *wal) append(ids []int, texts []string) error {
	var err error
	for i := 0; i < len(ids) && err == nil; i++ {
		err = w.enc.Encode(walRecord{ID: ids[i], Text: texts[i]})
	}
	if err := w.write(err); err != nil {
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
	if err := w.write(w.enc.Encode(walRecord{Flush: true})); err != nil {
		return err
	}
	w.flushes.Add(1)
	return nil
}

// write hands the commit encoded in buf to the file in one Write and
// fsyncs, then empties buf; encErr is the encoding's error, which skips
// the write. Any failure counts as a WAL error. A failed write rewinds
// the file to the end of the last commit written whole: a partial line
// would end the next replay's scan there.
func (w *wal) write(encErr error) (err error) {
	defer func() {
		w.buf.Reset()
		if err != nil {
			w.errs.Add(1)
		}
	}()
	if encErr != nil {
		return encErr
	}
	n, err := w.f.Write(w.buf.Bytes())
	if err != nil {
		return errors.Join(err, w.rewind(w.end))
	}
	w.end += int64(n)
	w.bytes.Add(int64(n))
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncs.Add(1)
	return nil
}

// truncate empties the log. Only called after a drain snapshot has
// committed (so every logged record is absorbed by the on-disk state)
// and after the accept gate has closed (so no append races it).
func (w *wal) truncate() error {
	if err := w.rewind(0); err != nil {
		return err
	}
	return w.f.Sync()
}

// close closes the file. Nothing is buffered between commits.
func (w *wal) close() error { return w.f.Close() }

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
