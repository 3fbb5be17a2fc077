// Package nic models the parts of a multi-queue 10 GbE NIC (the paper's
// Intel 82599 "Niantic") that matter for cache behaviour: per-queue
// descriptor rings and the per-core recycled packet-buffer pool whose
// free-list manipulation is the paper's skb_recycle function.
//
// The paper eliminates "underlying" contention by giving each core its
// own receive/transmit queues and per-core buffer pools (Section 2.2);
// this package enforces the same design: nothing here is shared between
// cores.
package nic

import (
	"fmt"
	"slices"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
)

// fnRecycle attributes buffer-pool bookkeeping, mirroring the paper's
// skb_recycle profile entry.
var fnRecycle = hw.RegisterFunc("skb_recycle")

// BufferPool is a per-core pool of fixed-size packet buffers managed
// through a free stack, as Click's per-core socket-buffer recycling does.
// Get and Put perform the real free-list manipulation and emit its memory
// trace: the stack entries and head pointer are bookkeeping data that is
// touched on every packet — which is why, in the paper's Figure 7,
// skb_recycle's cached data is essentially never evicted.
//
// The stack starts full with buffer 0 on top, so it pops the buffers
// returned so far, last in first out, then the never-taken ones in index
// order; the pool keeps just that. A buffer's bytes and header come with
// the first take of its chunk: a core that recycles a few holds one chunk.
type BufferPool struct {
	chunks   []*chunk   // host state of buffers k*chunkBufs on
	returned []int32    // buffers Put back; its capacity covers every buffer taken
	fresh    int        // next never-taken buffer
	region   mem.Region // simulated buffer storage
	stack    mem.Region // free-stack slots, 4 bytes each
	head     hw.Addr    // free-stack head index
	bufSize  int
}

// chunkBufs buffers share a chunk: their bytes and a packet header each.
const chunkBufs = 16

type chunk struct {
	pkts  [chunkBufs]click.Packet
	bytes []byte
}

// NewBufferPool takes the pool's simulated memory from arena — the
// buffers, the free stack and the head line — and no host buffers.
func NewBufferPool(arena *mem.Arena, count, bufSize int) *BufferPool {
	if count <= 0 || bufSize <= 0 {
		panic(fmt.Sprintf("nic: invalid pool %d x %d", count, bufSize))
	}
	return &BufferPool{
		region:  mem.NewRegion(arena, count, uint64(bufSize), true),
		stack:   mem.NewRegion(arena, count, 4, false),
		head:    arena.Alloc(hw.LineSize, hw.LineSize),
		bufSize: bufSize,
	}
}

// Available returns how many buffers are free: the free stack's depth.
func (bp *BufferPool) Available() int { return len(bp.returned) + bp.region.Count - bp.fresh }

// Get pops a free buffer, emitting the free-list trace. It returns the
// buffer's packet header, reset: Data spans the buffer, Addr is its
// simulated address, PoolIndex its index. It panics when the pool is
// exhausted — pipelines recycle every packet, so exhaustion means a leak,
// a bug worth failing loudly on.
//
//dataplane:stamped emits under the caller's Ctx bracket (sources and sinks own the attribution)
//dataplane:hotpath
func (bp *BufferPool) Get(ctx *click.Ctx) *click.Packet {
	idx := bp.fresh
	switch n := len(bp.returned); {
	case n > 0:
		idx, bp.returned = int(bp.returned[n-1]), bp.returned[:n-1]
	case idx == bp.region.Count:
		panic("nic: buffer pool exhausted (leaked packets?)")
	default:
		if bp.fresh++; idx%chunkBufs == 0 { // first take of a chunk: make it, and room for Put
			n := min(chunkBufs, bp.region.Count-idx)
			bp.chunks = append(bp.chunks, &chunk{bytes: make([]byte, n*bp.bufSize)}) //dataplane:allow hotpathalloc a chunk is made once, when its first buffer is first taken
			bp.returned = slices.Grow(bp.returned, idx+n-len(bp.returned))           //dataplane:allow hotpathalloc grown once per chunk, when its first buffer is first taken
		}
	}
	old := ctx.SetFunc(fnRecycle)
	defer ctx.SetFunc(old)
	ctx.Load(bp.head)                       // read head index
	ctx.Load(bp.stack.Addr(bp.Available())) // read stack slot
	ctx.Store(bp.head)                      // update head
	ctx.Compute(6, 6)
	c, i := bp.chunks[idx/chunkBufs], idx%chunkBufs
	lo, hi := i*bp.bufSize, (i+1)*bp.bufSize // hi is the capacity too: an overrun cannot reach the neighbour
	p := &c.pkts[i]
	*p = click.Packet{Data: c.bytes[lo:hi:hi], Addr: bp.region.Addr(idx), PoolIndex: idx}
	return p
}

// Put returns buffer idx to the pool, emitting the free-list trace.
//
//dataplane:stamped emits under the caller's Ctx bracket (sources and sinks own the attribution)
//dataplane:hotpath
func (bp *BufferPool) Put(ctx *click.Ctx, idx int) {
	if idx < 0 || idx >= bp.fresh {
		panic(fmt.Sprintf("nic: Put of a buffer never taken: %d", idx)) //dataplane:allow hotpathalloc formats only on the panic path, never in steady state
	}
	old := ctx.SetFunc(fnRecycle)
	defer ctx.SetFunc(old)
	ctx.Load(bp.head)
	ctx.Store(bp.stack.Addr(bp.Available()))
	ctx.Store(bp.head)
	ctx.Compute(6, 6)
	bp.returned = append(bp.returned, int32(idx))
}

// Ring is a descriptor ring for one RX or TX queue. Descriptors are 16
// bytes, four per cache line, so consecutive packets share descriptor
// lines — the access pattern that makes descriptor rings cache-friendly.
type Ring struct {
	desc mem.Region
	next int
}

// NewRing allocates a ring of n descriptors from arena.
func NewRing(arena *mem.Arena, n int) *Ring {
	if n <= 0 {
		panic("nic: ring size must be positive")
	}
	return &Ring{desc: mem.NewRegion(arena, n, 16, false)}
}

// Consume reads the next descriptor (RX side: the core checks what the
// NIC wrote) and advances the ring.
//
//dataplane:stamped emits under the caller's Ctx bracket (sources and sinks own the attribution)
//dataplane:hotpath
func (r *Ring) Consume(ctx *click.Ctx) {
	ctx.Load(r.desc.Addr(r.next))
	r.next = (r.next + 1) % r.desc.Count
}

// Produce writes the next descriptor (TX side: the core posts a packet
// for the NIC) and advances the ring.
//
//dataplane:stamped emits under the caller's Ctx bracket (sources and sinks own the attribution)
//dataplane:hotpath
func (r *Ring) Produce(ctx *click.Ctx) {
	ctx.Store(r.desc.Addr(r.next))
	r.next = (r.next + 1) % r.desc.Count
}
