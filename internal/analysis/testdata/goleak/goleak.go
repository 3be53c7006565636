// Package goleak is golden-test input for the goleak analyzer. Lines
// that must produce a finding carry a want marker with a substring of
// the message; lines whose finding must be swallowed by a justified
// vet:allow directive carry a want-suppressed marker. Unmarked
// functions must stay clean.
package goleak

import "sync"

func work() int { return 1 }

// FireAndForget spawns a goroutine with no way to ever join it.
func FireAndForget() {
	go func() { _ = work() }() // want "no completion signal"
}

// WgJoined is the par-pool discipline: Add before spawn, Done in the
// worker, Wait in the spawner.
func WgJoined(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = work()
		}()
	}
	wg.Wait()
}

// WgNeverWaited signals Done on a local WaitGroup nobody Waits on.
func WgNeverWaited() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done() }() // want "nothing joins"
}

// AddInside performs the Add from inside the spawned goroutine: Wait
// can observe a zero counter before the goroutine has started.
func AddInside(wg *sync.WaitGroup) {
	go func() {
		wg.Add(1) // want "wg.Add inside the spawned goroutine"
		defer wg.Done()
	}()
	wg.Wait()
}

// seq is a channel-fed sequencer: run closes the done field, Close
// receives it. The close signal reaches the go statement through run's
// fact summary, and the join is found module-wide on the field key.
type seq struct{ done chan struct{} }

func (s *seq) run() { defer close(s.done) }

// StartSeq is clean: the join lives in Close, another function.
func StartSeq(s *seq) { go s.run() }

// Close joins the sequencer's completion signal.
func (s *seq) Close() { <-s.done }

// leaky closes a field that no function anywhere receives.
type leaky struct{ done chan struct{} }

func (l *leaky) run() { defer close(l.done) }

// StartLeaky spawns the leaky sequencer; the close is never joined.
func StartLeaky(l *leaky) {
	go l.run() // want "nothing joins"
}

// ErrChan is the daemon idiom: the goroutine sends its result and the
// spawner receives it in a select.
func ErrChan() error {
	errc := make(chan error, 1)
	go func() { errc <- nil }()
	select {
	case err := <-errc:
		return err
	}
}

// Daemon runs for the process lifetime by design; the justified
// directive documents that and suppresses the finding.
func Daemon() {
	go func() { _ = work() }() //vet:allow goleak process-lifetime worker, reaped at exit // want-suppressed "no completion signal"
}

// BareDaemon shows that a bare directive does not suppress.
func BareDaemon() {
	//vet:allow goleak
	go func() { _ = work() }() // want "no completion signal"
}
