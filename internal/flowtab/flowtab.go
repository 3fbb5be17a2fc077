// Package flowtab is the one hashed per-flow state table, behind
// NetFlow's records, the NAT's mappings and the IDS ban list: open
// addressing over a power-of-two number of slots, one simulated line
// each. A lookup probes at most eight slots from its hash; a miss binds
// the first slot no key ever took or, when the whole chain is taken,
// evicts the chain's least recently found entry, as production flow
// tables bound probing and expire entries under pressure. Slots are
// never emptied, so "empty" is "never taken", and the host side
// (mem.Slots) holds a record only for a slot some key took.
package flowtab

import (
	"fmt"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
)

// probes bounds a probe chain.
const probes = 8

// Slot is a taken slot's host record. Seen leads so a record with no
// value (V struct{}) packs into two words.
type Slot[K comparable, V any] struct {
	Seen uint64 // the table's clock at the key's last Find
	Key  K
	Val  V
}

// Table is a bounded-probe LRU table from K to V.
type Table[K comparable, V any] struct {
	slots *mem.Slots[Slot[K, V]] // a slot is in use iff it was ever taken
	lines mem.Region             // one simulated line per slot
	mask  uint64
	clock uint64 // Finds so far: the recency stamp
}

// Size returns the slot count for capacity: the next power of two.
func Size(capacity int) int {
	if capacity <= 0 {
		panic(fmt.Sprintf("flowtab: capacity %d must be positive", capacity))
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return size
}

// New builds a table of Size(capacity) slots, its lines allocated from
// arena.
func New[K comparable, V any](arena *mem.Arena, capacity int) *Table[K, V] {
	size := Size(capacity)
	return &Table[K, V]{
		slots: mem.NewSlots[Slot[K, V]](size),
		lines: mem.NewRegion(arena, size, hw.LineSize, true),
		mask:  uint64(size - 1),
	}
}

// Lines returns the table's simulated lines, slot i's at Lines().Addr(i).
func (t *Table[K, V]) Lines() mem.Region { return t.lines }

// Taken returns the number of slots ever taken, the live entries.
func (t *Table[K, V]) Taken() int { return t.slots.Taken() }

// Find returns key's value and slot, probing from slot h: one load of
// each probed line and one Compute(4, 5) compare. hit reports that key
// was there; otherwise key is bound to a zero value in the first
// never-taken slot of the chain, or in place of the chain's least
// recently found entry when all of it is taken. Either way the slot's
// recency is now the newest. The store of the slot's line is the
// caller's.
//
//dataplane:stamped emits under the caller's Ctx bracket (called from its users' Process paths)
func (t *Table[K, V]) Find(ctx *click.Ctx, h uint64, key K) (v *V, slot int, hit bool) {
	t.clock++
	idx := h & t.mask
	victim, victimSeen := idx, ^uint64(0)
	for probe := 0; probe < probes; probe++ {
		s := t.slots.Get(int(idx))
		ctx.Load(t.lines.Addr(int(idx)))
		ctx.Compute(4, 5)
		if s == nil {
			return t.bind(int(idx), key), int(idx), false
		}
		if s.Key == key {
			s.Seen = t.clock
			return &s.Val, int(idx), true
		}
		if s.Seen < victimSeen {
			victim, victimSeen = idx, s.Seen
		}
		idx = (idx + 1) & t.mask
	}
	// The whole chain is taken: evict its least recently found entry.
	return t.bind(int(victim), key), int(victim), false
}

// bind gives slot i to key with a zero value, newest in recency.
func (t *Table[K, V]) bind(i int, key K) *V {
	s := t.slots.Take(i)
	*s = Slot[K, V]{Seen: t.clock, Key: key}
	return &s.Val
}

// Lookup returns key's record, probing from slot h, without tracing and
// without touching recency.
func (t *Table[K, V]) Lookup(h uint64, key K) (Slot[K, V], bool) {
	idx := h & t.mask
	for probe := 0; probe < probes; probe++ {
		s := t.slots.Get(int(idx))
		if s == nil {
			break
		}
		if s.Key == key {
			return *s, true
		}
		idx = (idx + 1) & t.mask
	}
	return Slot[K, V]{}, false
}
