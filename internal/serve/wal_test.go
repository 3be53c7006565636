package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writerFunc adapts a function to io.Writer: the device under fakeWAL.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// fakeWAL is a write-ahead log whose file is the bare device w.
func fakeWAL(w io.Writer) *wal { return newWAL("", deviceFile{w}) }

// deviceFile is a walFile that only writes: reads see an empty file, and
// seeks, truncations, fsyncs and Close do nothing.
type deviceFile struct{ io.Writer }

func (deviceFile) Read([]byte) (int, error)       { return 0, io.EOF }
func (deviceFile) Seek(int64, int) (int64, error) { return 0, nil }
func (deviceFile) Truncate(int64) error           { return nil }
func (deviceFile) Sync() error                    { return nil }
func (deviceFile) Close() error                   { return nil }

// memFile is an in-memory walFile. While failWrites is positive, each
// Write lands the first half of its bytes, fails, and decrements it: a
// torn append on a device that then recovers.
type memFile struct {
	data       []byte
	pos        int64
	failWrites int
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.pos >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	var err error
	if f.failWrites > 0 {
		f.failWrites--
		p, err = p[:len(p)/2], errors.New("disk full")
	}
	if end := f.pos + int64(len(p)); end > int64(len(f.data)) {
		f.data = append(f.data, make([]byte, end-int64(len(f.data)))...)
	}
	f.pos += int64(copy(f.data[f.pos:], p))
	return len(p), err
}

func (f *memFile) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekCurrent:
		off += f.pos
	case io.SeekEnd:
		off += int64(len(f.data))
	}
	if off < 0 {
		return 0, errors.New("memFile: negative offset")
	}
	f.pos = off
	return off, nil
}

func (f *memFile) Truncate(size int64) error {
	if size <= int64(len(f.data)) {
		f.data = f.data[:size]
	} else {
		f.data = append(f.data, make([]byte, size-int64(len(f.data)))...)
	}
	return nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// noSyncFile is a WAL file whose fsync does nothing.
type noSyncFile struct{ walFile }

func (noSyncFile) Sync() error { return nil }

// withoutFsync wraps every WAL file NewSharded opened in a noSyncFile.
// These tests never lose the host, so the device's durability is not
// under test, and an fsync per group commit slows the sharded fuzzer
// from thousands of programs a burst to a handful.
func withoutFsync(sh *Sharded, err error) (*Sharded, error) {
	if err != nil {
		return nil, err
	}
	for _, s := range sh.shards {
		if w := s.wal; w != nil {
			w.f = noSyncFile{w.f}
		}
	}
	return sh, nil
}

// countingFile is a walFile that counts its Writes and Syncs.
type countingFile struct {
	walFile
	writes, syncs int
}

func (f *countingFile) Write(p []byte) (int, error) {
	f.writes++
	return f.walFile.Write(p)
}

func (f *countingFile) Sync() error {
	f.syncs++
	return f.walFile.Sync()
}

// TestWALOneWritePerCommit: a 64-document group commit of ~137-byte
// records, the ingest-bulk shape, reaches the file in one Write and one
// Sync, and so does a flush marker; the log holds each record as
// json.Marshal writes it, one per line.
func TestWALOneWritePerCommit(t *testing.T) {
	mem := &memFile{}
	f := &countingFile{walFile: mem}
	w := newWAL("", f)
	ids, texts := make([]int, 64), make([]string, 64)
	var want []byte
	for i := range ids {
		ids[i] = 1000 + i
		texts[i] = fmt.Sprintf("%03d big sale <call> now & save \u2028 \u00e9 ", i) + strings.Repeat("x", 59)
		b, err := json.Marshal(walRecord{ID: ids[i], Text: texts[i]})
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, b...), '\n')
	}
	if per := len(want) / len(ids); per < 130 || per > 145 {
		t.Fatalf("%d bytes per record, want about 137", per)
	}
	if err := w.append(ids, texts); err != nil {
		t.Fatal(err)
	}
	if f.writes != 1 || f.syncs != 1 {
		t.Fatalf("group commit: %d writes, %d syncs; want 1 each", f.writes, f.syncs)
	}
	if err := w.appendFlush(); err != nil {
		t.Fatal(err)
	}
	if f.writes != 2 || f.syncs != 2 {
		t.Fatalf("after a flush marker: %d writes, %d syncs; want 2 each", f.writes, f.syncs)
	}
	want = append(want, `{"id":0,"flush":true}`+"\n"...)
	if !bytes.Equal(mem.data, want) {
		t.Fatalf("log holds %d bytes that differ from the %d json.Marshal lines hold", len(mem.data), len(want))
	}
	if st := w.stats(); st.Bytes != int64(len(want)) || st.Syncs != 2 || st.Errors != 0 {
		t.Fatalf("stats %+v, want %d bytes, 2 syncs, no errors", st, len(want))
	}
}

// stubDetector records the replay calls the WAL makes, standing in for a
// stream.Detector restored from a state holding some number of documents.
type stubDetector struct {
	next    int
	added   []string
	flushes int
}

func (s *stubDetector) Add(text string) int {
	s.added = append(s.added, text)
	s.next++
	return s.next - 1
}

func (s *stubDetector) Flush() { s.flushes++ }

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")

	w, err := openWAL(path, &stubDetector{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append([]int{0, 1, 2}, []string{"aa", "bb", "cc"}); err != nil {
		t.Fatal(err)
	}
	if err := w.appendFlush(); err != nil {
		t.Fatal(err)
	}
	if err := w.append([]int{3, 4}, []string{"dd", "ee"}); err != nil {
		t.Fatal(err)
	}
	st := w.stats()
	if st.Records != 5 || st.Batches != 2 || st.Flushes != 1 || st.Replayed != 0 {
		t.Fatalf("writer stats %+v", st)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	// Full replay from scratch: every record, in order, flush included.
	det := &stubDetector{}
	w2, err := openWAL(path, det, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	wantDocs := []string{"aa", "bb", "cc", "dd", "ee"}
	if len(det.added) != len(wantDocs) || det.flushes != 1 {
		t.Fatalf("replayed %d docs %d flushes, want %d docs 1 flush", len(det.added), det.flushes, len(wantDocs))
	}
	for i, d := range det.added {
		if d != wantDocs[i] {
			t.Fatalf("replayed doc %d = %q, want %q", i, d, wantDocs[i])
		}
	}
	if got := w2.stats().Replayed; got != 5 {
		t.Fatalf("replayed counter %d, want 5", got)
	}

	// Partial replay above a snapshot high-water mark: records below hwm
	// skip (the flush marker below hwm too — it is folded into the
	// snapshot), the detector resumes at hwm.
	det3 := &stubDetector{next: 4}
	w3, err := openWAL(path, det3, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.close()
	if len(det3.added) != 1 || det3.added[0] != "ee" || det3.flushes != 0 {
		t.Fatalf("hwm=4 replay: added %v flushes %d", det3.added, det3.flushes)
	}
}

// TestWALFlushMarkerAtBoundary verifies a flush marker logged after the
// snapshot point is re-executed (pos >= hwm) while one before it is not.
func TestWALFlushMarkerAtBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := openWAL(path, &stubDetector{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = w.append([]int{0, 1}, []string{"aa", "bb"})
	_ = w.appendFlush() // pre-snapshot: folded into state at hwm 2
	_ = w.append([]int{2}, []string{"cc"})
	_ = w.appendFlush() // post-snapshot: must be replayed
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	det := &stubDetector{next: 2}
	w2, err := openWAL(path, det, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if len(det.added) != 1 || det.added[0] != "cc" || det.flushes != 1 {
		t.Fatalf("boundary replay: added %v flushes %d, want [cc] 1", det.added, det.flushes)
	}
}

func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	intact := `{"id":0,"text":"aa"}` + "\n" + `{"id":1,"text":"bb"}` + "\n"
	if err := os.WriteFile(path, []byte(intact+`{"id":2,"te`), 0o644); err != nil {
		t.Fatal(err)
	}

	det := &stubDetector{}
	w, err := openWAL(path, det, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.added) != 2 {
		t.Fatalf("replayed %d records past a torn tail, want 2", len(det.added))
	}
	// The torn tail is truncated away so the next append starts at a
	// record boundary.
	if info, err := os.Stat(path); err != nil || info.Size() != int64(len(intact)) {
		t.Fatalf("size after torn-tail truncation: %v %d, want %d", err, info.Size(), len(intact))
	}
	if err := w.append([]int{2}, []string{"cc"}); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	det2 := &stubDetector{}
	w2, err := openWAL(path, det2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if len(det2.added) != 3 || det2.added[2] != "cc" {
		t.Fatalf("post-repair replay %v, want 3 docs ending cc", det2.added)
	}
}

// TestWALStateLogMismatch: replay ids must match what the detector
// assigns — a drifted state file (wrong snapshot next to this log) is a
// hard boot error, not silent corruption.
func TestWALStateLogMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte(`{"id":7,"text":"aa"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openWAL(path, &stubDetector{}, 0); err == nil {
		t.Fatal("id mismatch replay did not error")
	}
}

func TestWALTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := openWAL(path, &stubDetector{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.append([]int{i}, []string{fmt.Sprintf("doc%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.truncate(); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != 0 {
		t.Fatalf("truncated log size %d, want 0", info.Size())
	}
	det := &stubDetector{}
	w2, err := openWAL(path, det, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if len(det.added) != 0 {
		t.Fatalf("replayed %d from a truncated log", len(det.added))
	}
}
