// Package atomicmix is golden-test input for the atomicmix analyzer.
// Lines that must produce a finding carry a want marker with a substring
// of the message; lines whose finding must be swallowed by a justified
// vet:allow directive carry a want-suppressed marker. Unmarked
// functions must stay clean.
package atomicmix

import "sync/atomic"

// counters is updated through sync/atomic in bump; that claims the hits
// field for the atomic protocol everywhere in the module.
type counters struct {
	hits int64
	miss int64
}

func bump(c *counters) { atomic.AddInt64(&c.hits, 1) }

// PlainRead races bump's atomic increment.
func PlainRead(c *counters) int64 {
	return c.hits // want "plain access"
}

// PlainWrite races it too — stores are no safer than loads.
func PlainWrite(c *counters) {
	c.hits = 0 // want "plain access"
}

// AtomicRead uses the protocol — clean.
func AtomicRead(c *counters) int64 {
	return atomic.LoadInt64(&c.hits)
}

// PlainUntracked reads miss, which no atomic site touches — clean.
func PlainUntracked(c *counters) int64 {
	return c.miss
}

// gauge uses a typed atomic: method-only access is immune by
// construction, which is the fix the analyzer suggests.
type gauge struct{ hw atomic.Int64 }

// Observe is clean: typed atomics cannot be accessed plainly.
func (g *gauge) Observe(v int64) {
	if v > g.hw.Load() {
		g.hw.Store(v)
	}
}

// SuppressedSnapshot reads the counter plainly after all writers have
// been joined; the justified directive documents the happens-before.
func SuppressedSnapshot(c *counters) int64 {
	return c.hits //vet:allow atomicmix read-after-join at shutdown, no concurrent writers // want-suppressed "plain access"
}

// BareSnapshot shows that a bare directive does not suppress.
func BareSnapshot(c *counters) int64 {
	//vet:allow atomicmix
	return c.hits // want "plain access"
}
