package dpi

import (
	"fmt"
	"sync/atomic"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
)

// banProbes bounds a linear probe chain; a full chain evicts its
// least-recently-seen entry, so the table behaves as an LRU verdict
// cache under address pressure — like the NAT flow table, it is the
// workload's large mutable state, and its placement is what
// MIGRATE_STATE decides.
const banProbes = 8

// BanTable is an LRU IP ban/verdict table: open addressing with linear
// probing over line-sized entries allocated from an arena, so the table
// is a labelled, placeable, migratable state resource exactly like the
// NAT flow table (the graph builder labels the binding with the
// element's node name).
//
// Concurrency contract: one writer (the owning worker, via Check) and
// any number of readers (Contains). Entries are packed into single
// atomic words — address(32) | LRU stamp(32), zero meaning empty — so
// readers never observe a torn entry. Slots are never emptied (full
// chains evict in place), so probe chains terminate at the first empty
// slot for readers and writer alike.
type BanTable struct {
	slots  []atomic.Uint64
	region mem.Region // one simulated line per entry
	mask   uint64
	clock  uint32
}

// NewBanTable builds a table with capacity entries (rounded up to a
// power of two), one simulated line each, allocated from arena.
func NewBanTable(arena *mem.Arena, capacity int) (*BanTable, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("dpi: ban table capacity %d must be positive", capacity)
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &BanTable{
		slots:  make([]atomic.Uint64, size),
		region: mem.NewRegion(arena, size, hw.LineSize, true),
		mask:   uint64(size - 1),
	}, nil
}

// SimBytes returns the table's simulated footprint.
func (t *BanTable) SimBytes() uint64 { return t.region.Size() }

// Occupied returns the number of live entries.
func (t *BanTable) Occupied() int {
	n := 0
	for i := range t.slots {
		if t.slots[i].Load() != 0 {
			n++
		}
	}
	return n
}

// banHash spreads the 32-bit address over the table.
func banHash(ip uint32) uint64 {
	x := uint64(ip) * 0x9e3779b97f4a7c15
	return x >> 32
}

// Lookup and insert costs beyond the probe loads: the hash and the
// per-probe compare.
const (
	banHashCompute = 12
	banHashInstrs  = 10
	banCmpCompute  = 4
	banCmpInstrs   = 5
)

// Check records a sighting of ip and returns its verdict: true when ip
// was already in the table (a repeat offender — the hit refreshes its
// LRU stamp), false on first sight (the address is inserted, evicting
// the probe chain's least-recently-seen entry when full). It emits the
// probe trace against the table's simulated lines; writer-side only.
//
//dataplane:hotpath
//dataplane:stamped emits under the caller's Ctx bracket (called from Element.Process)
func (t *BanTable) Check(ctx *click.Ctx, ip uint32) bool {
	t.clock++
	if t.clock == 0 { // stamp 0 means empty; skip it on wrap
		t.clock = 1
	}
	ctx.Compute(banHashCompute, banHashInstrs)
	idx := banHash(ip) & t.mask
	victim := idx
	victimStamp := ^uint32(0)
	for probe := 0; probe < banProbes; probe++ {
		packed := t.slots[idx].Load()
		ctx.Load(t.region.Addr(int(idx)))
		ctx.Compute(banCmpCompute, banCmpInstrs)
		if packed == 0 {
			t.slots[idx].Store(uint64(ip)<<32 | uint64(t.clock))
			ctx.Store(t.region.Addr(int(idx)))
			return false
		}
		if uint32(packed>>32) == ip {
			t.slots[idx].Store(uint64(ip)<<32 | uint64(t.clock))
			ctx.Store(t.region.Addr(int(idx)))
			return true
		}
		if stamp := uint32(packed); stamp < victimStamp {
			victim, victimStamp = idx, stamp
		}
		idx = (idx + 1) & t.mask
	}
	// Chain full: evict the least-recently-seen probed entry.
	t.slots[victim].Store(uint64(ip)<<32 | uint64(t.clock))
	ctx.Store(t.region.Addr(int(victim)))
	return false
}

// Contains reports whether ip currently has an entry, without recording
// a sighting or emitting a trace. Safe to call concurrently with the
// writer's Check. Only tests call it: it is their observer of the
// table (lint/test-only-api.txt), and no control plane reads the table.
func (t *BanTable) Contains(ip uint32) bool {
	idx := banHash(ip) & t.mask
	for probe := 0; probe < banProbes; probe++ {
		packed := t.slots[idx].Load()
		if packed == 0 {
			return false
		}
		if uint32(packed>>32) == ip {
			return true
		}
		idx = (idx + 1) & t.mask
	}
	return false
}
