package synth

import (
	"testing"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
)

func TestSourceEmitsConfiguredMix(t *testing.T) {
	arena := mem.NewArena(0)
	s := NewSource(arena, Config{Seed: 1, RegionBytes: 1 << 20, AccessesPerPacket: 8, ComputePerAccess: 50})
	ops := s.EmitPacket(nil)
	var loads, computes int
	for _, op := range ops {
		switch op.Kind {
		case hw.OpLoadStream:
			loads++
		case hw.OpCompute:
			computes++
			if op.Cycles != 50 {
				t.Fatalf("compute burst = %d cycles, want 50", op.Cycles)
			}
		}
	}
	if loads != 8 || computes != 8 {
		t.Fatalf("ops = %d loads / %d computes, want 8/8", loads, computes)
	}
}

func TestMaxSourceIsPureLoads(t *testing.T) {
	arena := mem.NewArena(0)
	s := NewSource(arena, Config{Seed: 2}) // SYN_MAX: no compute between reads
	ops := s.EmitPacket(nil)
	if len(ops) != s.cfg.AccessesPerPacket {
		t.Fatalf("ops = %d, want %d", len(ops), s.cfg.AccessesPerPacket)
	}
	for _, op := range ops {
		if op.Kind != hw.OpLoadStream {
			t.Fatalf("SYN_MAX emitted kind %d; must be stream loads only", op.Kind)
		}
	}
}

func TestAccessesStayInRegion(t *testing.T) {
	arena := mem.NewArena(1)
	size := 1 << 20
	s := NewSource(arena, Config{Seed: 3, RegionBytes: size, AccessesPerPacket: 64})
	var ops []hw.Op
	for i := 0; i < 50; i++ {
		ops = s.EmitPacket(ops[:0])
		for _, op := range ops {
			if op.Kind != hw.OpLoadStream {
				continue
			}
			if hw.DomainOf(op.Addr) != 1 {
				t.Fatalf("access %#x outside domain 1", op.Addr)
			}
		}
	}
}

func TestAccessesCoverRegionUniformly(t *testing.T) {
	arena := mem.NewArena(0)
	size := 64 * hw.LineSize * 4 // 256 lines
	s := NewSource(arena, Config{Seed: 4, RegionBytes: size, AccessesPerPacket: 64})
	counts := make(map[hw.Addr]int)
	var ops []hw.Op
	for i := 0; i < 100; i++ {
		ops = s.EmitPacket(ops[:0])
		for _, op := range ops {
			counts[op.Addr]++
		}
	}
	if len(counts) < 200 {
		t.Fatalf("only %d of 256 lines ever touched; not uniform", len(counts))
	}
}

func TestDeterministicStreams(t *testing.T) {
	mk := func() []hw.Op {
		s := NewSource(mem.NewArena(0), Config{Seed: 9, RegionBytes: 1 << 20})
		var ops []hw.Op
		for i := 0; i < 10; i++ {
			ops = s.EmitPacket(ops)
		}
		return ops
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs", i)
		}
	}
}

func TestElementTrigger(t *testing.T) {
	arena := mem.NewArena(0)
	el := NewElement(arena, Config{Seed: 5, RegionBytes: 1 << 20, AccessesPerPacket: 4}, 3)
	var ctx click.Ctx
	p := &click.Packet{Data: make([]byte, 64), Addr: 0x1000}

	for i := 0; i < 3; i++ {
		ctx.Ops = ctx.Ops[:0]
		if v := el.Process(&ctx, p); v != click.Continue {
			t.Fatalf("verdict = %v", v)
		}
		if len(ctx.Ops) != 0 {
			t.Fatalf("packet %d: element active before trigger", i)
		}
		if el.Active() {
			t.Fatal("Active() true before trigger")
		}
	}
	ctx.Ops = ctx.Ops[:0]
	el.Process(&ctx, p)
	if len(ctx.Ops) != 4 {
		t.Fatalf("post-trigger ops = %d, want 4", len(ctx.Ops))
	}
	if !el.Active() {
		t.Fatal("Active() false after trigger")
	}
	if el.seen != 4 {
		t.Fatalf("seen = %d", el.seen)
	}
}

func TestElementAlwaysActiveWithZeroTrigger(t *testing.T) {
	el := NewElement(mem.NewArena(0), Config{Seed: 6, RegionBytes: 1 << 20, AccessesPerPacket: 2}, 0)
	var ctx click.Ctx
	el.Process(&ctx, &click.Packet{Data: make([]byte, 64)})
	if len(ctx.Ops) != 2 {
		t.Fatalf("ops = %d, want 2", len(ctx.Ops))
	}
}
