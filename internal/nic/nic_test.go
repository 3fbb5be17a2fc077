package nic

import (
	"reflect"
	"slices"
	"testing"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
)

// newPool builds a pool with its host buffers: ReserveBufferPool, then
// Alloc.
func newPool(arena *mem.Arena, count, bufSize int) *BufferPool {
	bp := ReserveBufferPool(arena, count, bufSize)
	bp.Alloc()
	return bp
}

func TestBufferPoolGetPutCycle(t *testing.T) {
	arena := mem.NewArena(0)
	bp := newPool(arena, 4, 2048)
	var ctx click.Ctx

	if bp.Available() != 4 {
		t.Fatalf("Available = %d, want 4", bp.Available())
	}
	idx, data, addr := bp.Get(&ctx)
	if len(data) != 2048 {
		t.Fatalf("buffer size = %d", len(data))
	}
	if hw.DomainOf(addr) != 0 {
		t.Fatalf("buffer in domain %d, want 0", hw.DomainOf(addr))
	}
	if bp.Available() != 3 {
		t.Fatalf("Available after Get = %d, want 3", bp.Available())
	}
	bp.Put(&ctx, idx)
	if bp.Available() != 4 {
		t.Fatalf("Available after Put = %d, want 4", bp.Available())
	}
}

func TestBufferPoolDistinctBuffers(t *testing.T) {
	arena := mem.NewArena(0)
	bp := newPool(arena, 8, 512)
	var ctx click.Ctx
	seen := make(map[int]bool)
	addrs := make(map[hw.Addr]bool)
	bufs := make([][]byte, 8)
	for i := 0; i < 8; i++ {
		idx, data, addr := bp.Get(&ctx)
		if seen[idx] || addrs[addr] {
			t.Fatalf("duplicate buffer %d / %#x", idx, addr)
		}
		seen[idx] = true
		addrs[addr] = true
		// The buffers share one slab: each must end where it ends, so an
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

// TestBufferPoolAllocatesOnce: a pool is one slab, one free stack and its
// header whatever the buffer count (it was an object per buffer).
func TestBufferPoolAllocatesOnce(t *testing.T) {
	for _, count := range []int{4, 512, 4096} {
		// The arena's own bookkeeping is one or two of them.
		if n := testing.AllocsPerRun(5, func() { newPool(mem.NewArena(0), count, 2048) }); n > 8 {
			t.Fatalf("a pool of %d buffers takes %v allocations, want a small constant", count, n)
		}
	}
}

// TestReservedPoolHoldsNoHostMemory: ReserveBufferPool takes the same
// simulated extents as an allocated pool and no host buffers; Alloc then
// makes it the eager pool.
func TestReservedPoolHoldsNoHostMemory(t *testing.T) {
	ea, ra := mem.NewArena(0), mem.NewArena(0)
	eager, reserved := newPool(ea, 16, 512), ReserveBufferPool(ra, 16, 512)
	if reserved.slab != nil || reserved.free != nil {
		t.Fatalf("reserved pool holds %d slab bytes and %d free entries, want none", len(reserved.slab), len(reserved.free))
	}
	if !slices.Equal(ea.Bindings(), ra.Bindings()) || ea.Alloc(64, 64) != ra.Alloc(64, 64) {
		t.Fatalf("arena extents differ: eager %v, reserved %v", ea.Bindings(), ra.Bindings())
	}
	reserved.Alloc()
	if !reflect.DeepEqual(eager, reserved) {
		t.Fatal("reserved pool after Alloc differs from the eager one")
	}
}

func TestBufferPoolExhaustionPanics(t *testing.T) {
	arena := mem.NewArena(0)
	bp := newPool(arena, 1, 64)
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
	bp := newPool(arena, 2, 64)
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
	bp := newPool(arena, 2, 64)
	var ctx click.Ctx
	idx, _, _ := bp.Get(&ctx)
	bp.Put(&ctx, idx)
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
		func() { ReserveBufferPool(arena, 0, 64) },
		func() { ReserveBufferPool(arena, 4, 0) },
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
