// Package netflow implements per-flow traffic statistics in the style of
// Cisco NetFlow, the paper's MON workload: hash the IP and transport
// header of each packet, index a hash table of per-TCP/UDP-flow entries,
// and update a packet counter and timestamp in the matching entry.
//
// The table is the canonical "memory-intensive but cacheable" structure:
// at the paper's 100000 flows it occupies several megabytes, benefits
// heavily from the L3 cache, and is therefore the workload most sensitive
// to cache contention (Figure 2). That size is simulated: the records
// are a flowtab.Table, which holds a host record only for a slot some
// flow took, so a table costs 4 bytes a slot plus its live flows.
package netflow

import (
	"pktpredict/internal/click"
	"pktpredict/internal/flowtab"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/netpkt"
)

// fnFlowStats matches the paper's flow_statistics profile symbol.
var fnFlowStats = hw.RegisterFunc("flow_statistics")

// Entry is one flow's counters. The table keeps its key and the packet
// sequence number of its last update beside it (flowtab.Slot).
type Entry struct {
	Packets uint64
	Bytes   uint64
}

// Table is a flow table in the layout production collectors use: a
// bucket-index array (hash → record slot) and line-sized flow records
// (flowtab.Table). Each update reads the index line, probes record
// lines, and writes the matching record.
type Table struct {
	index mem.Region // bucket-index array, 8 bytes per slot
	tab   *flowtab.Table[netpkt.FiveTuple, Entry]
}

// NewTable builds a table with capacity slots (rounded up to a power of
// two) allocated from arena, the bucket index first.
func NewTable(arena *mem.Arena, capacity int) *Table {
	size := flowtab.Size(capacity)
	index := mem.NewRegion(arena, size, 8, false)
	return &Table{index: index, tab: flowtab.New[netpkt.FiveTuple, Entry](arena, size)}
}

// Taken returns the number of used slots.
func (t *Table) Taken() int { return t.tab.Taken() }

// Update records one packet of size bytes for flow key, emitting the
// hash, the bucket-index load, the probe trace, and the stores: the
// index entry of a new record, then the record.
//
//dataplane:stamped emits under the caller's Ctx bracket (called from Element.Process)
func (t *Table) Update(ctx *click.Ctx, key netpkt.FiveTuple, size int) {
	old := ctx.SetFunc(fnFlowStats)
	defer ctx.SetFunc(old)

	h := key.Hash()
	ctx.Compute(30, 28) // header hash computation
	ctx.Load(t.index.Addr(int(h) & (t.index.Count - 1)))
	e, slot, hit := t.tab.Find(ctx, h, key)
	if !hit {
		ctx.Store(t.index.Addr(slot))
	}
	e.Packets++
	e.Bytes += uint64(size)
	ctx.Store(t.tab.Lines().Addr(slot))
}

// Get returns the record for key without tracing, for tests.
func (t *Table) Get(key netpkt.FiveTuple) (flowtab.Slot[netpkt.FiveTuple, Entry], bool) {
	return t.tab.Lookup(key.Hash(), key)
}

// Element is the NetFlow click element.
type Element struct {
	Table *Table
}

// Process implements click.Element.
func (e *Element) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	ft, err := netpkt.ExtractFiveTuple(p.Data)
	if err != nil {
		return click.Drop
	}
	// Reading the transport header may touch a second packet line.
	old := ctx.SetFunc(fnFlowStats)
	ctx.LoadBytes(p.Addr+netpkt.IPv4HeaderLen, 4)
	ctx.SetFunc(old)
	e.Table.Update(ctx, ft, len(p.Data))
	return click.Continue
}

func init() {
	click.Register("NetFlow", []click.Key[int]{
		click.Int("ENTRIES", "[1,)", func(n *int) *int { return n }),
	}, func(*click.Env) int { return 100000 }, func(env *click.Env, entries int) (interface{}, error) {
		return &Element{Table: NewTable(env.Arena, entries)}, nil
	})
}
