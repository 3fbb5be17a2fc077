package re

import (
	"fmt"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
)

// fnRE attributes redundancy-elimination work in profiles.
var fnRE = hw.RegisterFunc("redundancy_elim")

// PacketStore is the cache of recently observed content: a byte ring in
// simulated memory. The paper sizes it to hold one second's worth of
// traffic; the size is a parameter here because the behaviour that
// matters for contention — the store being far larger than the L3 — holds
// at any of the configured scales.
type PacketStore struct {
	buf    []byte
	region mem.Region
	w      uint64 // total bytes ever written; w % len(buf) is the write head
}

// NewPacketStore allocates a store of size bytes from arena.
func NewPacketStore(arena *mem.Arena, size int) *PacketStore {
	if size < 1024 {
		panic(fmt.Sprintf("re: packet store of %d bytes is too small", size))
	}
	return &PacketStore{
		buf:    make([]byte, size),
		region: mem.NewRegion(arena, size/hw.LineSize, hw.LineSize, false),
	}
}

// addrOf returns the simulated address of store offset off.
func (ps *PacketStore) addrOf(off uint64) hw.Addr {
	return ps.region.Base + hw.Addr(off%uint64(len(ps.buf)))
}

// Append copies data into the store at the write head, emitting the line
// stores, and returns the store offset where the data begins.
//
//dataplane:stamped emits under the caller's Ctx bracket (called from Processor.Process)
func (ps *PacketStore) Append(ctx *click.Ctx, data []byte) uint64 {
	start := ps.w
	for i := 0; i < len(data); i += hw.LineSize {
		ctx.Store(ps.addrOf(ps.w + uint64(i)))
	}
	for _, b := range data {
		ps.buf[ps.w%uint64(len(ps.buf))] = b
		ps.w++
	}
	return start
}

// Valid reports whether store offset off still holds live (not yet
// overwritten) content of at least n bytes.
func (ps *PacketStore) Valid(off uint64, n int) bool {
	if off+uint64(n) > ps.w {
		return false // never written
	}
	return ps.w-off <= uint64(len(ps.buf)) // not yet overwritten
}

// ReadAt copies n bytes at store offset off into out, emitting line
// loads. The caller must have checked Valid.
//
//dataplane:stamped emits under the caller's Ctx bracket (called from Processor.Process)
func (ps *PacketStore) ReadAt(ctx *click.Ctx, off uint64, out []byte) {
	for i := 0; i < len(out); i += hw.LineSize {
		ctx.Load(ps.addrOf(off + uint64(i)))
	}
	for i := range out {
		out[i] = ps.buf[(off+uint64(i))%uint64(len(ps.buf))]
	}
}

// byteAt returns the byte at store offset off without tracing (used
// during comparisons whose line loads are already accounted).
func (ps *PacketStore) byteAt(off uint64) byte {
	return ps.buf[off%uint64(len(ps.buf))]
}

// FPTable maps content fingerprints to packet-store offsets. It is a
// direct-indexed table (one slot per hash bucket, newest wins), the
// classic RE design: false matches are filtered by byte comparison
// against the store, so slots can be small and collisions cheap.
type FPTable struct {
	keys   []uint32 // truncated fingerprint, 0 = empty
	locs   []uint64 // store offset of the window's first byte
	region mem.Region
	mask   uint64
}

// NewFPTable builds a table with capacity slots (rounded up to a power of
// two).
func NewFPTable(arena *mem.Arena, capacity int) *FPTable {
	if capacity <= 0 {
		panic("re: fingerprint table capacity must be positive")
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &FPTable{
		keys: make([]uint32, size),
		locs: make([]uint64, size),
		// 16 simulated bytes per slot: four slots per line.
		region: mem.NewRegion(arena, size, 16, false),
		mask:   uint64(size - 1),
	}
}

func fpKey(fp uint64) uint32 {
	k := uint32(fp >> 32)
	if k == 0 {
		k = 1 // 0 marks an empty slot
	}
	return k
}

// Lookup returns the store offset recorded for fp, emitting the slot
// load. ok is false when the slot is empty or holds a different key.
//
//dataplane:stamped emits under the caller's Ctx bracket (called from Processor.Process)
func (t *FPTable) Lookup(ctx *click.Ctx, fp uint64) (loc uint64, ok bool) {
	idx := fp & t.mask
	ctx.Load(t.region.Addr(int(idx)))
	ctx.Compute(6, 7)
	if t.keys[idx] == fpKey(fp) {
		return t.locs[idx], true
	}
	return 0, false
}

// Insert records fp → loc, overwriting any previous occupant (newest
// content wins, as in the original design), and emits the slot store.
//
//dataplane:stamped emits under the caller's Ctx bracket (called from Processor.Process)
func (t *FPTable) Insert(ctx *click.Ctx, fp uint64, loc uint64) {
	idx := fp & t.mask
	ctx.Store(t.region.Addr(int(idx)))
	ctx.Compute(4, 5)
	t.keys[idx] = fpKey(fp)
	t.locs[idx] = loc
}
