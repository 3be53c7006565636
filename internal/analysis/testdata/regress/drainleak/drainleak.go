// Package drainleak seeds a shutdown leak against a channel-fed
// coalescer: the sequencer goroutine closes done when the request queue
// drains, but Close forgot the receive on done — goleak must notice
// that the close signal is never joined anywhere in the module.
package drainleak

// coalescer is a single-goroutine sequencer loop.
type coalescer struct {
	reqs chan int
	done chan struct{}
}

// newCoalescer spawns the sequencer. The close(done) signal reaches
// this go statement through run's fact summary.
func newCoalescer() *coalescer {
	c := &coalescer{reqs: make(chan int, 64), done: make(chan struct{})}
	go c.run() // want "nothing joins"
	return c
}

func (c *coalescer) run() {
	defer close(c.done)
	for range c.reqs {
	}
}

// Close stops intake but forgot `<-c.done`: the sequencer may still be
// mid-batch when the caller tears down shared state.
func (c *coalescer) Close() {
	close(c.reqs)
}
