// Package par provides the small worker-pool primitives shared by the
// pipeline's parallel stages (tokenization, phrase extraction, LSH
// signatures, DF-shard merging, batch verdicts). Everything here is
// deterministic in its work assignment: items are split into contiguous
// chunks in index order, so a caller that writes result[i] from worker
// code gets the same layout regardless of how many workers actually run.
// No stage nests one fan-out inside another.
package par

import (
	"runtime"
	"sync"
)

// Workers normalizes a worker-count knob: values <= 0 select GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Ranges splits [0, n) into at most workers contiguous chunks and calls
// fn(lo, hi) for each chunk concurrently, returning when all chunks are
// done. Chunk boundaries depend only on n and workers, never on
// scheduling. workers <= 0 selects GOMAXPROCS; n <= 0 is a no-op.
func Ranges(n, workers int, fn func(lo, hi int)) {
	IndexedRanges(n, workers, func(_, lo, hi int) { fn(lo, hi) })
}

// IndexedRanges is Ranges with the chunk's index passed to fn: chunk w
// covers [w*chunkSize, ...), so chunk indices enumerate the chunks in
// ascending item order. The index is what lets callers keep worker-local
// state (e.g. per-worker count maps) and later merge it in a
// deterministic, item-ordered sequence. Indices are < Workers(workers).
func IndexedRanges(n, workers int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w, lo := 0, 0; lo < n; w, lo = w+1, lo+chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
