package nic

import (
	"math"
	goruntime "runtime"
	"slices"
	"testing"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/rng"
)

func TestBufferPoolGetPutCycle(t *testing.T) {
	arena := mem.NewArena(0)
	bp := NewBufferPool(arena, 4, 2048)
	var ctx click.Ctx

	if bp.Available() != 4 {
		t.Fatalf("Available = %d, want 4", bp.Available())
	}
	p := bp.Get(&ctx)
	if len(p.Data) != 2048 {
		t.Fatalf("buffer size = %d", len(p.Data))
	}
	if hw.DomainOf(p.Addr) != 0 {
		t.Fatalf("buffer in domain %d, want 0", hw.DomainOf(p.Addr))
	}
	if bp.Available() != 3 {
		t.Fatalf("Available after Get = %d, want 3", bp.Available())
	}
	bp.Put(&ctx, p.PoolIndex)
	if bp.Available() != 4 {
		t.Fatalf("Available after Put = %d, want 4", bp.Available())
	}
}

func TestBufferPoolDistinctBuffers(t *testing.T) {
	arena := mem.NewArena(0)
	bp := NewBufferPool(arena, 8, 512)
	var ctx click.Ctx
	seen := make(map[int]bool)
	addrs := make(map[hw.Addr]bool)
	bufs := make([][]byte, 8)
	for i := 0; i < 8; i++ {
		p := bp.Get(&ctx)
		idx, data, addr := p.PoolIndex, p.Data, p.Addr
		if seen[idx] || addrs[addr] {
			t.Fatalf("duplicate buffer %d / %#x", idx, addr)
		}
		seen[idx] = true
		addrs[addr] = true
		// The buffers share a chunk: each must end where it ends, so an
		// append past it reallocates instead of writing into the next.
		if len(data) != 512 || cap(data) != 512 {
			t.Fatalf("buffer %d: len %d cap %d, want 512 / 512", idx, len(data), cap(data))
		}
		for j := range data {
			data[j] = byte(idx + 1)
		}
		bufs[idx] = data
	}
	for idx, data := range bufs {
		if data[0] != byte(idx+1) || data[511] != byte(idx+1) {
			t.Fatalf("buffer %d overwritten by a neighbour", idx)
		}
	}
}

// eagerPool is the free stack as first written, kept as the oracle:
// every buffer's bytes in one slab and the whole stack in a slice, filled
// at construction with buffer 0 on top.
type eagerPool struct {
	slab    []byte
	region  mem.Region
	stack   mem.Region
	head    hw.Addr
	free    []int
	bufSize int
}

func newEagerPool(arena *mem.Arena, count, bufSize int) *eagerPool {
	bp := &eagerPool{
		region:  mem.NewRegion(arena, count, uint64(bufSize), true),
		stack:   mem.NewRegion(arena, count, 4, false),
		head:    arena.Alloc(hw.LineSize, hw.LineSize),
		bufSize: bufSize,
		slab:    make([]byte, count*bufSize),
		free:    make([]int, count),
	}
	for i := range bp.free {
		bp.free[i] = count - 1 - i
	}
	return bp
}

func (bp *eagerPool) Get(ctx *click.Ctx) (idx int, data []byte, addr hw.Addr) {
	old := ctx.SetFunc(fnRecycle)
	defer ctx.SetFunc(old)
	idx = bp.free[len(bp.free)-1]
	bp.free = bp.free[:len(bp.free)-1]
	ctx.Load(bp.head)
	ctx.Load(bp.stack.Addr(len(bp.free)))
	ctx.Store(bp.head)
	ctx.Compute(6, 6)
	lo, hi := idx*bp.bufSize, (idx+1)*bp.bufSize
	return idx, bp.slab[lo:hi:hi], bp.region.Addr(idx)
}

func (bp *eagerPool) Put(ctx *click.Ctx, idx int) {
	old := ctx.SetFunc(fnRecycle)
	defer ctx.SetFunc(old)
	ctx.Load(bp.head)
	ctx.Store(bp.stack.Addr(len(bp.free)))
	ctx.Store(bp.head)
	ctx.Compute(6, 6)
	bp.free = append(bp.free, idx)
}

// TestBufferPoolMatchesEagerReference drives random Get/Put sequences —
// each pool drained to empty and refilled in a random order at least once
// — through BufferPool and the eager oracle: the same buffer index, the
// same ops (stack-slot and head addresses included), the same buffer
// address and length, and the same Available() after every call. Each
// live buffer's bytes are stamped and checked, so no two share storage.
func TestBufferPoolMatchesEagerReference(t *testing.T) {
	r := rng.New(46)
	for _, shape := range []struct{ count, bufSize int }{{1, 64}, {7, 512}, {16, 512}, {17, 64}, {100, 2048}} {
		arena, refArena := mem.NewArena(0), mem.NewArena(0)
		bp, ref := NewBufferPool(arena, shape.count, shape.bufSize), newEagerPool(refArena, shape.count, shape.bufSize)
		var ctx, refCtx click.Ctx
		var live []*click.Packet
		step := func(i int, get bool) {
			t.Helper()
			ctx.Ops, refCtx.Ops = ctx.Ops[:0], refCtx.Ops[:0]
			if get {
				p := bp.Get(&ctx)
				idx, data, addr := ref.Get(&refCtx)
				if p.PoolIndex != idx || p.Addr != addr || len(p.Data) != len(data) || cap(p.Data) != cap(data) {
					t.Fatalf("%v step %d: Get gave buffer %d at %#x (len %d cap %d), the oracle %d at %#x (len %d cap %d)",
						shape, i, p.PoolIndex, p.Addr, len(p.Data), cap(p.Data), idx, addr, len(data), cap(data))
				}
				for j := range p.Data {
					p.Data[j] = byte(idx + 1)
				}
				live = append(live, p)
			} else {
				k := r.Intn(len(live))
				p := live[k]
				live = slices.Delete(live, k, k+1)
				if p.Data[0] != byte(p.PoolIndex+1) || p.Data[len(p.Data)-1] != byte(p.PoolIndex+1) {
					t.Fatalf("%v step %d: buffer %d overwritten while live", shape, i, p.PoolIndex)
				}
				bp.Put(&ctx, p.PoolIndex)
				ref.Put(&refCtx, p.PoolIndex)
			}
			if !slices.Equal(ctx.Ops, refCtx.Ops) {
				t.Fatalf("%v step %d (get %v): ops %v, the oracle's %v", shape, i, get, ctx.Ops, refCtx.Ops)
			}
			if bp.Available() != len(ref.free) {
				t.Fatalf("%v step %d: Available %d, the oracle's %d", shape, i, bp.Available(), len(ref.free))
			}
		}
		for i := 0; i < 40*shape.count+200; i++ {
			switch {
			case i == 3*shape.count: // drain to empty, then refill in a random order
				for bp.Available() > 0 {
					step(i, true)
				}
				for len(live) > 0 {
					step(i, false)
				}
			case bp.Available() == 0:
				step(i, false)
			case len(live) == 0:
				step(i, true)
			default: // lean to Get below half the pool live, to Put above
				step(i, r.Intn(3) > 0 != (len(live) > shape.count/2))
			}
		}
	}
}

// TestBufferPoolAllocatesOnce: building a pool allocates a small constant
// whatever the buffer count, and taking every buffer allocates per chunk,
// not per buffer.
func TestBufferPoolAllocatesOnce(t *testing.T) {
	for _, count := range []int{4, 512, 4096} {
		// The arena's own bookkeeping is one or two of them.
		if n := testing.AllocsPerRun(5, func() { NewBufferPool(mem.NewArena(0), count, 2048) }); n > 8 {
			t.Fatalf("a pool of %d buffers takes %v allocations, want a small constant", count, n)
		}
		drain := func() {
			bp := NewBufferPool(mem.NewArena(0), count, 2048)
			var ctx click.Ctx
			ctx.Ops = make([]hw.Op, 0, 4*count)
			for bp.Available() > 0 {
				bp.Get(&ctx)
			}
		}
		chunks := (count + chunkBufs - 1) / chunkBufs
		if n := testing.AllocsPerRun(5, drain); n > float64(3*chunks+40) {
			t.Fatalf("taking all %d buffers takes %v allocations, want about two per %d-buffer chunk", count, n, chunkBufs)
		}
	}
}

// TestReservedPoolHoldsNoHostMemory: NewBufferPool takes the eager
// oracle's simulated extents and no host buffers; a run that keeps one
// buffer live holds host bytes for one chunk only. TotalAlloc is
// process-wide, so the construction bound is on the smallest of several
// tries: a stray runtime allocation does not land in every one, an eager
// slab would.
func TestReservedPoolHoldsNoHostMemory(t *testing.T) {
	const count, bufSize, tries = 4096, 2048, 5
	ea := mem.NewArena(0)
	newEagerPool(ea, count, bufSize)
	var la *mem.Arena
	var bp *BufferPool
	least := uint64(math.MaxUint64)
	var before, after goruntime.MemStats
	for range tries {
		la = mem.NewArena(0)
		goruntime.ReadMemStats(&before)
		bp = NewBufferPool(la, count, bufSize)
		goruntime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if bp.chunks != nil || bp.returned != nil {
			t.Fatalf("new pool holds %d chunks and %d returned slots, want none", len(bp.chunks), cap(bp.returned))
		}
	}
	if least > 4<<10 {
		t.Fatalf("new pool took at least %d host bytes in each of %d tries, want none", least, tries)
	}
	if !slices.Equal(ea.Bindings(), la.Bindings()) || ea.Alloc(64, 64) != la.Alloc(64, 64) {
		t.Fatalf("arena extents differ: eager %v, lazy %v", ea.Bindings(), la.Bindings())
	}
	var ctx click.Ctx
	ctx.Ops = make([]hw.Op, 0, 16)
	goruntime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		ctx.Ops = ctx.Ops[:0]
		bp.Put(&ctx, bp.Get(&ctx).PoolIndex)
	}
	goruntime.ReadMemStats(&after)
	// The eager slab alone was count*bufSize = 8 MiB.
	if len(bp.chunks) != 1 || len(bp.chunks[0].bytes) != chunkBufs*bufSize || after.TotalAlloc-before.TotalAlloc > 2*chunkBufs*bufSize {
		t.Fatalf("one live buffer: %d chunks, %d host bytes allocated, want one chunk of %d",
			len(bp.chunks), after.TotalAlloc-before.TotalAlloc, chunkBufs*bufSize)
	}
}

func TestBufferPoolExhaustionPanics(t *testing.T) {
	arena := mem.NewArena(0)
	bp := NewBufferPool(arena, 1, 64)
	var ctx click.Ctx
	bp.Get(&ctx)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	bp.Get(&ctx)
}

func TestBufferPoolPutValidation(t *testing.T) {
	arena := mem.NewArena(0)
	bp := NewBufferPool(arena, 2, 64)
	var ctx click.Ctx
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid index")
		}
	}()
	bp.Put(&ctx, 99)
}

func TestBufferPoolEmitsRecycleTrace(t *testing.T) {
	arena := mem.NewArena(0)
	bp := NewBufferPool(arena, 2, 64)
	var ctx click.Ctx
	bp.Put(&ctx, bp.Get(&ctx).PoolIndex)
	if len(ctx.Ops) == 0 {
		t.Fatal("pool operations must emit a trace")
	}
	recycle := hw.RegisterFunc("skb_recycle")
	for _, op := range ctx.Ops {
		if op.Func != recycle {
			t.Fatalf("op %+v not attributed to skb_recycle", op)
		}
	}
	// After Get+Put the attribution function must be restored.
	ctx.Load(0x40)
	if ctx.Ops[len(ctx.Ops)-1].Func != hw.FuncOther {
		t.Fatal("pool did not restore the attribution function")
	}
}

func TestRingWrapsAround(t *testing.T) {
	arena := mem.NewArena(0)
	r := NewRing(arena, 4)
	var ctx click.Ctx
	first := func() hw.Addr {
		ctx.Ops = ctx.Ops[:0]
		r.Consume(&ctx)
		return ctx.Ops[0].Addr
	}
	a0 := first()
	for i := 0; i < 3; i++ {
		first()
	}
	if a4 := first(); a4 != a0 {
		t.Fatalf("ring did not wrap: first %#x, fifth %#x", a0, a4)
	}
}

func TestRingDescriptorsPack(t *testing.T) {
	arena := mem.NewArena(0)
	r := NewRing(arena, 8)
	var ctx click.Ctx
	r.Consume(&ctx)
	r.Consume(&ctx)
	if hw.LineOf(ctx.Ops[0].Addr) != hw.LineOf(ctx.Ops[1].Addr) {
		t.Fatal("16-byte descriptors should pack four to a line")
	}
}

func TestRingProduceStores(t *testing.T) {
	arena := mem.NewArena(0)
	r := NewRing(arena, 2)
	var ctx click.Ctx
	r.Produce(&ctx)
	if ctx.Ops[0].Kind != hw.OpStore {
		t.Fatalf("Produce emitted %v, want store", ctx.Ops[0].Kind)
	}
}

func TestNewValidation(t *testing.T) {
	arena := mem.NewArena(0)
	for _, f := range []func(){
		func() { NewBufferPool(arena, 0, 64) },
		func() { NewBufferPool(arena, 4, 0) },
		func() { NewRing(arena, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
