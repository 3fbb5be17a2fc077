// Package netflow implements per-flow traffic statistics in the style of
// Cisco NetFlow, the paper's MON workload: hash the IP and transport
// header of each packet, index a hash table of per-TCP/UDP-flow entries,
// and update a packet counter and timestamp in the matching entry.
//
// The table is the canonical "memory-intensive but cacheable" structure:
// at the paper's 100000 flows it occupies several megabytes, benefits
// heavily from the L3 cache, and is therefore the workload most sensitive
// to cache contention (Figure 2). That size is simulated; on the host a
// record exists only for a slot some flow took (mem.Slots), so a table
// costs 4 bytes a slot plus its live flows.
package netflow

import (
	"fmt"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/netpkt"
)

// fnFlowStats matches the paper's flow_statistics profile symbol.
var fnFlowStats = hw.RegisterFunc("flow_statistics")

// Entry is one flow record, written with its flow's first packet.
type Entry struct {
	Key      netpkt.FiveTuple
	Packets  uint64
	Bytes    uint64
	LastSeen uint64 // packet sequence number of the last update
}

// Table is an open-addressing (linear probing) flow table in the layout
// production collectors use: a bucket-index array (hash → record slot)
// and line-sized flow records. Each update reads the index line, probes
// record lines, and writes the matching record.
type Table struct {
	slots  *mem.Slots[Entry] // a slot is in use iff it was ever taken
	index  mem.Region        // bucket-index array, 8 bytes per slot
	region mem.Region        // flow records, one line each
	mask   uint64
	clock  uint64
}

// maxProbes bounds a probe chain; production flow tables bound probing
// and evict (export) the record at the end of the chain when full.
const maxProbes = 8

// NewTable builds a table with capacity slots (rounded up to a power of
// two) allocated from arena.
func NewTable(arena *mem.Arena, capacity int) *Table {
	if capacity <= 0 {
		panic(fmt.Sprintf("netflow: capacity %d must be positive", capacity))
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Table{
		slots:  mem.NewSlots[Entry](size),
		index:  mem.NewRegion(arena, size, 8, false),
		region: mem.NewRegion(arena, size, hw.LineSize, true),
		mask:   uint64(size - 1),
	}
}

// Taken returns the number of used slots.
func (t *Table) Taken() int { return t.slots.Taken() }

// Update records one packet of size bytes for flow key, emitting the
// probe-and-update trace: one load per probed slot and one store for the
// written record.
//
//dataplane:stamped emits under the caller's Ctx bracket (called from Element.Process)
func (t *Table) Update(ctx *click.Ctx, key netpkt.FiveTuple, size int) *Entry {
	old := ctx.SetFunc(fnFlowStats)
	defer ctx.SetFunc(old)

	t.clock++
	h := key.Hash()
	ctx.Compute(30, 28) // header hash computation
	idx := h & t.mask
	ctx.Load(t.index.Addr(int(idx))) // bucket-index entry
	var victim *Entry
	victimIdx := idx
	for probe := 0; probe < maxProbes; probe++ {
		slot := t.slots.Get(int(idx))
		ctx.Load(t.region.Addr(int(idx))) // record line
		ctx.Compute(4, 5)
		if slot == nil {
			victim = t.slots.Take(int(idx))
			victimIdx = idx
			break
		}
		if slot.Key == key {
			slot.Packets++
			slot.Bytes += uint64(size)
			slot.LastSeen = t.clock
			ctx.Store(t.region.Addr(int(idx)))
			return slot
		}
		// Remember the stalest record in the chain as the eviction
		// candidate.
		if victim == nil || slot.LastSeen < victim.LastSeen {
			victim = slot
			victimIdx = idx
		}
		idx = (idx + 1) & t.mask
	}
	*victim = Entry{Key: key, Packets: 1, Bytes: uint64(size), LastSeen: t.clock}
	ctx.Store(t.index.Addr(int(victimIdx)))
	ctx.Store(t.region.Addr(int(victimIdx)))
	return victim
}

// Get returns the entry for key without tracing, for tests.
func (t *Table) Get(key netpkt.FiveTuple) (Entry, bool) {
	idx := key.Hash() & t.mask
	for probe := 0; probe < maxProbes; probe++ {
		slot := t.slots.Get(int(idx))
		if slot == nil {
			return Entry{}, false
		}
		if slot.Key == key {
			return *slot, true
		}
		idx = (idx + 1) & t.mask
	}
	return Entry{}, false
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
