package dpi

import (
	"fmt"

	"pktpredict/internal/click"
	"pktpredict/internal/flowtab"
	"pktpredict/internal/mem"
)

// BanTable is an LRU IP ban/verdict table: a flowtab.Table keyed by
// source address. Like the NAT flow table, it is the workload's large
// mutable state, a labelled, placeable, migratable resource (the graph
// builder labels its lines with the element's node name), and its
// placement is what MIGRATE_STATE decides.
type BanTable struct {
	tab *flowtab.Table[uint32, struct{}]
}

// NewBanTable builds a table with capacity entries (rounded up to a
// power of two), one simulated line each, allocated from arena.
func NewBanTable(arena *mem.Arena, capacity int) (*BanTable, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("dpi: ban table capacity %d must be positive", capacity)
	}
	return &BanTable{tab: flowtab.New[uint32, struct{}](arena, capacity)}, nil
}

// SimBytes returns the table's simulated footprint.
func (t *BanTable) SimBytes() uint64 { return t.tab.Lines().Size() }

// Taken returns the number of live entries.
func (t *BanTable) Taken() int { return t.tab.Taken() }

// banHash spreads the 32-bit address over the table.
func banHash(ip uint32) uint64 {
	x := uint64(ip) * 0x9e3779b97f4a7c15
	return x >> 32
}

// The hash's cost, beyond the table's per-probe loads and compares.
const (
	banHashCompute = 12
	banHashInstrs  = 10
)

// Check records a sighting of ip and returns its verdict: true when ip
// was already in the table (a repeat offender — the hit refreshes its
// recency), false on first sight (the address is inserted, evicting the
// probe chain's least-recently-seen entry when full). It emits the hash,
// the probe trace and the store of the touched entry against the
// table's simulated lines.
//
//dataplane:hotpath
//dataplane:stamped emits under the caller's Ctx bracket (called from Element.Process)
func (t *BanTable) Check(ctx *click.Ctx, ip uint32) bool {
	ctx.Compute(banHashCompute, banHashInstrs)
	_, slot, hit := t.tab.Find(ctx, banHash(ip), ip)
	ctx.Store(t.tab.Lines().Addr(slot))
	return hit
}

// Contains reports whether ip currently has an entry, without recording
// a sighting or emitting a trace. Only tests call it: it is their
// observer of the table (lint/test-only-api.txt), and no control plane
// reads the table.
func (t *BanTable) Contains(ip uint32) bool {
	_, ok := t.tab.Lookup(banHash(ip), ip)
	return ok
}
