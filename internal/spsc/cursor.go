// Package spsc is the cursor core shared by the dataplane's two bounded
// single-producer single-consumer rings: runtime.Ring (packet bytes, the
// NIC receive queue) and handoff.Ring (packet descriptors between
// pipeline stages). A Cursor owns the head/tail protocol and hands out
// slot indices; the rings own only what is stored in a slot and what
// moving it costs in the simulation.
package spsc

import (
	"fmt"
	"sync/atomic"
)

// Cursor is the SPSC discipline over a power-of-two ring of slots. head
// and tail increase monotonically; (tail − head) is the occupancy. The
// producer only writes tail, the consumer only writes head; a slot is
// published by the tail store (release) and may be reused after the head
// store, both observed through atomic loads (acquire).
//
// Batched operation moves each cursor once per batch instead of once per
// slot: the producer stages slots (Stage) and publishes them with a
// single tail store (Commit); the consumer reads ahead of head (Take)
// and frees the slots with a single head store (Release). staged and
// taken are plain fields — each is touched only by its own side of the
// ring, so they need no atomicity.
type Cursor struct {
	size uint64
	mask uint64

	_      [64]byte // keep producer and consumer cursors on separate lines
	tail   atomic.Uint64
	staged uint64 // producer-side: slots written beyond tail, unpublished
	_      [64]byte
	head   atomic.Uint64
	taken  uint64 // consumer-side: slots read beyond head, unreleased
	_      [64]byte
}

// Init sizes the cursor for at least capacity slots (rounded up to a
// power of two, minimum 2) and returns the slot count to allocate.
func (c *Cursor) Init(capacity int) int {
	if capacity <= 0 {
		panic(fmt.Sprintf("spsc: invalid ring capacity %d", capacity))
	}
	n := 2
	for n < capacity {
		n <<= 1
	}
	c.size, c.mask = uint64(n), uint64(n-1)
	return n
}

// Cap returns the ring's capacity in slots.
func (c *Cursor) Cap() int { return int(c.size) }

// Len returns the published occupancy, 0 ≤ Len ≤ Cap from any goroutine
// while both sides run: head is loaded first and never passes tail, so
// the difference cannot go negative, and slots freed and refilled
// between the two loads are clamped away.
func (c *Cursor) Len() int {
	h := c.head.Load()
	return int(min(c.tail.Load()-h, c.size))
}

// Full reports whether Stage would fail, counting the producer's
// staged-but-unpublished slots. Only the producer should act on it (the
// consumer can only make it stale in the permissive direction).
func (c *Cursor) Full() bool { return c.tail.Load()+c.staged-c.head.Load() >= c.size }

// Consumed returns the cumulative number of slots released — the credit
// counter backpressure accounting differences across barriers.
func (c *Cursor) Consumed() uint64 { return c.head.Load() }

// Produced returns the cumulative number of slots published.
func (c *Cursor) Produced() uint64 { return c.tail.Load() }

// Stage reserves the next free slot for the producer to fill, without
// publishing it: the consumer cannot see staged slots until Commit.
// Returns ok=false when the ring, staged slots included, is full.
//
//dataplane:hotpath
func (c *Cursor) Stage() (slot uint64, ok bool) {
	t := c.tail.Load() + c.staged
	if t-c.head.Load() >= c.size {
		return 0, false
	}
	c.staged++
	return t & c.mask, true
}

// Commit publishes every staged slot with a single tail store and
// reports whether there was anything to publish.
//
//dataplane:hotpath
func (c *Cursor) Commit() bool {
	if c.staged == 0 {
		return false
	}
	c.tail.Store(c.tail.Load() + c.staged) // publish the batch
	c.staged = 0
	return true
}

// Take returns the next published slot for the consumer to read, without
// freeing it: the producer cannot reuse taken slots until Release.
// Returns ok=false when the ring, beyond already-taken slots, is empty.
//
//dataplane:hotpath
func (c *Cursor) Take() (slot uint64, ok bool) {
	h := c.head.Load() + c.taken
	if h == c.tail.Load() {
		return 0, false
	}
	c.taken++
	return h & c.mask, true
}

// Release frees every taken slot with a single head store and reports
// whether there was anything to free.
//
//dataplane:hotpath
func (c *Cursor) Release() bool {
	if c.taken == 0 {
		return false
	}
	c.head.Store(c.head.Load() + c.taken) // release the batch
	c.taken = 0
	return true
}
