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
type BufferPool struct {
	slab    []byte     // every buffer, bufSize bytes each, in one host allocation
	region  mem.Region // simulated buffer storage
	stack   mem.Region // free-stack slots, 4 bytes each
	head    hw.Addr    // free-stack head index
	free    []int
	bufSize int
}

// ReserveBufferPool takes the pool's simulated memory from arena — the
// buffers, the free stack and the head line — and no host memory: Get
// must not run before Alloc.
func ReserveBufferPool(arena *mem.Arena, count, bufSize int) *BufferPool {
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

// Alloc allocates a reserved pool's host buffers and fills its free
// stack, every buffer free.
func (bp *BufferPool) Alloc() {
	bp.slab = make([]byte, bp.region.Count*bp.bufSize)
	bp.free = make([]int, bp.region.Count)
	for i := range bp.free {
		bp.free[i] = len(bp.free) - 1 - i // pop order: buffer 0 first
	}
}

// Size returns the pool's buffer count.
func (bp *BufferPool) Size() int { return bp.region.Count }

// Available returns how many buffers are currently free.
func (bp *BufferPool) Available() int { return len(bp.free) }

// Get pops a free buffer, emitting the free-list trace. It returns the
// buffer index, its bytes, and its simulated address. It panics when the
// pool is exhausted — pipelines recycle every packet, so exhaustion means
// a leak, a bug worth failing loudly on.
//
//dataplane:stamped emits under the caller's Ctx bracket (sources and sinks own the attribution)
//dataplane:hotpath
func (bp *BufferPool) Get(ctx *click.Ctx) (idx int, data []byte, addr hw.Addr) {
	if len(bp.free) == 0 {
		panic("nic: buffer pool exhausted (leaked packets?)")
	}
	old := ctx.SetFunc(fnRecycle)
	defer ctx.SetFunc(old)
	idx = bp.free[len(bp.free)-1]
	bp.free = bp.free[:len(bp.free)-1]
	ctx.Load(bp.head)                     // read head index
	ctx.Load(bp.stack.Addr(len(bp.free))) // read stack slot
	ctx.Store(bp.head)                    // update head
	ctx.Compute(6, 6)
	lo, hi := idx*bp.bufSize, (idx+1)*bp.bufSize // hi is the capacity too: an overrun cannot reach the neighbour
	return idx, bp.slab[lo:hi:hi], bp.region.Addr(idx)
}

// Put returns buffer idx to the pool, emitting the free-list trace.
//
//dataplane:stamped emits under the caller's Ctx bracket (sources and sinks own the attribution)
//dataplane:hotpath
func (bp *BufferPool) Put(ctx *click.Ctx, idx int) {
	if idx < 0 || idx >= bp.region.Count {
		panic(fmt.Sprintf("nic: Put of invalid buffer %d", idx)) //dataplane:allow hotpathalloc formats only on the panic path, never in steady state
	}
	old := ctx.SetFunc(fnRecycle)
	defer ctx.SetFunc(old)
	ctx.Load(bp.head)
	ctx.Store(bp.stack.Addr(len(bp.free)))
	ctx.Store(bp.head)
	ctx.Compute(6, 6)
	bp.free = append(bp.free, idx)
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
