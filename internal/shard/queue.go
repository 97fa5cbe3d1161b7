package shard

import (
	"sync"

	"dcvalidate/internal/rcdc"
)

// chunk is one unit of sweep work: a run of device scopes all owned by
// one shard, validated against that shard's FIB source regardless of
// which worker executes it.
type chunk struct {
	owner int
	work  []rcdc.Scope
}

// chunkSize bounds a chunk: small enough that stealing rebalances a
// skewed partition, large enough that queue traffic stays negligible
// next to validation work.
const chunkSize = 16

// deque is the per-shard work queue of the stealing pool. The owning
// worker pops from the bottom (LIFO, cache-warm most-recent work);
// thieves steal from the top (FIFO, the oldest — and for a
// just-populated queue, largest-remaining — run of work). A plain
// mutex-guarded deque: contention is one lock per chunk, and chunks are
// device-validation-sized, so a lock-free Chase-Lev deque would buy
// nothing measurable here.
type deque struct {
	mu    sync.Mutex
	items []chunk
}

func (d *deque) push(c chunk) {
	d.mu.Lock()
	d.items = append(d.items, c)
	d.mu.Unlock()
}

// popBottom removes the most recently pushed chunk (owner path).
func (d *deque) popBottom() (chunk, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return chunk{}, false
	}
	c := d.items[len(d.items)-1]
	d.items = d.items[:len(d.items)-1]
	return c, true
}

// stealTop removes the oldest chunk (thief path).
func (d *deque) stealTop() (chunk, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return chunk{}, false
	}
	c := d.items[0]
	d.items = d.items[1:]
	return c, true
}

// chunked splits work into owner-tagged chunks.
func chunked(owner int, work []rcdc.Scope) []chunk {
	var out []chunk
	for len(work) > 0 {
		n := min(chunkSize, len(work))
		out = append(out, chunk{owner: owner, work: work[:n]})
		work = work[n:]
	}
	return out
}
