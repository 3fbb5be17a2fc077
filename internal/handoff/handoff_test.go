package handoff

import (
	stdruntime "runtime"
	"testing"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
)

func sumCompute(ops []hw.Op) (cycles int) {
	for _, op := range ops {
		if op.Kind == hw.OpCompute {
			cycles += int(op.Cycles)
		}
	}
	return
}

func opKinds(ops []hw.Op) (loads, stores, computes int) {
	for _, op := range ops {
		switch op.Kind {
		case hw.OpLoad:
			loads++
		case hw.OpStore:
			stores++
		case hw.OpCompute:
			computes++
		}
	}
	return
}

func TestRingPushPopCharges(t *testing.T) {
	r := New(mem.NewArena(0), 4)
	var prodCtx, consCtx click.Ctx
	p := &click.Packet{Addr: 0x10000}

	prodCtx.Ops = nil
	if !r.Push(&prodCtx, p, 7, true) {
		t.Fatal("push into empty ring failed")
	}
	// A scalar push is stage (slot compute) + commit (cursor compute):
	// two computes whose cycles sum to the historical per-push cost.
	loads, stores, computes := opKinds(prodCtx.Ops)
	if stores != 1 || computes != 2 || loads != 0 {
		t.Fatalf("push trace: %d loads %d stores %d computes, want 0/1/2", loads, stores, computes)
	}
	if got := sumCompute(prodCtx.Ops); got != slotCycles+cursorCycles {
		t.Fatalf("push compute cycles = %d, want %d", got, slotCycles+cursorCycles)
	}

	consCtx.Ops = nil
	got, node, fin, ok := r.Pop(&consCtx)
	if !ok || got != p || node != 7 || !fin {
		t.Fatalf("pop = (%v, %d, %v, %v), want (p, 7, true, true)", got, node, fin, ok)
	}
	loads, stores, computes = opKinds(consCtx.Ops)
	if loads != 1 || computes != 2 || stores != 0 {
		t.Fatalf("pop trace: %d loads %d stores %d computes, want 1/0/2", loads, stores, computes)
	}
	if gotCyc := sumCompute(consCtx.Ops); gotCyc != slotCycles+cursorCycles {
		t.Fatalf("pop compute cycles = %d, want %d", gotCyc, slotCycles+cursorCycles)
	}

	// The consumer-side compulsory header miss touches each header line.
	consCtx.Ops = nil
	r.ChargeHeaderMiss(&consCtx, p)
	loads, _, _ = opKinds(consCtx.Ops)
	if want := int(hw.LineOf(p.Addr+HeaderBytes-1)-hw.LineOf(p.Addr))/hw.LineSize + 1; loads != want {
		t.Fatalf("header miss loads %d lines, want %d", loads, want)
	}
}

// TestRingBatchedPushPopCharges pins the batched cost split: N staged
// pushes plus one commit charge N slot costs and one cursor cost — the
// same per-packet total as N scalar pushes minus N−1 cursor updates —
// and staged slots stay invisible to the consumer until the commit.
func TestRingBatchedPushPopCharges(t *testing.T) {
	r := New(mem.NewArena(0), 8)
	var prodCtx, consCtx click.Ctx
	pkts := []*click.Packet{{Addr: 0x10000}, {Addr: 0x10200}, {Addr: 0x10400}}

	prodCtx.Ops = nil
	for i, p := range pkts {
		if !r.StagePush(&prodCtx, p, i, false) {
			t.Fatalf("stage %d failed", i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("staged slots visible before commit: len = %d", r.Len())
	}
	r.CommitPush(&prodCtx)
	if r.Len() != len(pkts) {
		t.Fatalf("after commit: len = %d, want %d", r.Len(), len(pkts))
	}
	if got, want := sumCompute(prodCtx.Ops), len(pkts)*slotCycles+cursorCycles; got != want {
		t.Fatalf("batched push cycles = %d, want %d", got, want)
	}

	consCtx.Ops = nil
	for i, want := range pkts {
		p, node, _, ok := r.PopStaged(&consCtx)
		if !ok || p != want || node != i {
			t.Fatalf("pop %d: ok=%v p=%v node=%d", i, ok, p, node)
		}
	}
	if r.Consumed() != 0 {
		t.Fatalf("staged pops released before commit: consumed = %d", r.Consumed())
	}
	r.CommitPop(&consCtx)
	if r.Consumed() != uint64(len(pkts)) || r.Len() != 0 {
		t.Fatalf("after commit: consumed = %d, len = %d", r.Consumed(), r.Len())
	}
	if got, want := sumCompute(consCtx.Ops), len(pkts)*slotCycles+cursorCycles; got != want {
		t.Fatalf("batched pop cycles = %d, want %d", got, want)
	}

	// An empty commit charges nothing: quanta that staged no packets must
	// not accrue cursor costs.
	prodCtx.Ops = nil
	r.CommitPush(&prodCtx)
	consCtx.Ops = nil
	r.CommitPop(&consCtx)
	if len(prodCtx.Ops) != 0 || len(consCtx.Ops) != 0 {
		t.Fatal("empty commit charged ops")
	}
}

func TestRingFullEmptyAndPolls(t *testing.T) {
	r := New(mem.NewArena(0), 2)
	var ctx click.Ctx
	if r.Len() != 0 || r.Full() {
		t.Fatalf("fresh ring: len=%d full=%v", r.Len(), r.Full())
	}
	p := &click.Packet{Addr: 0x20000}
	for i := 0; i < r.Cap(); i++ {
		ctx.Ops = nil
		if !r.Push(&ctx, p, i, false) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if !r.Full() {
		t.Fatal("ring not full at capacity")
	}
	ctx.Ops = nil
	if r.Push(&ctx, p, 9, false) {
		t.Fatal("push into full ring succeeded")
	}
	if len(ctx.Ops) != 0 {
		t.Fatal("failed push charged ops")
	}
	// Polls charge a spin-wait trace without moving packets, and each
	// direction lands in its own counter: PollFull is the producer
	// spinning (consumer lags), PollEmpty the consumer (producer
	// starves) — the split the residual diagnosis uses to name the side
	// at fault.
	ctx.Ops = nil
	r.PollFull(&ctx)
	if len(ctx.Ops) == 0 {
		t.Fatal("PollFull charged nothing")
	}
	if r.PushPolls() != 1 || r.PopPolls() != 0 {
		t.Fatalf("after PollFull: push=%d pop=%d, want 1/0", r.PushPolls(), r.PopPolls())
	}
	before := r.Len()
	ctx.Ops = nil
	r.PollEmpty(&ctx)
	if len(ctx.Ops) == 0 || r.Len() != before {
		t.Fatal("PollEmpty charged nothing or moved packets")
	}
	if r.PushPolls() != 1 || r.PopPolls() != 1 {
		t.Fatalf("after PollEmpty: push=%d pop=%d, want 1/1", r.PushPolls(), r.PopPolls())
	}
	if total := r.PushPolls() + r.PopPolls(); total != 2 {
		t.Fatalf("total polls = %d, want 2", total)
	}
	for i := 0; i < before; i++ {
		ctx.Ops = nil
		if _, node, _, ok := r.Pop(&ctx); !ok || node != i {
			t.Fatalf("pop %d: ok=%v node=%d", i, ok, node)
		}
	}
	if _, _, _, ok := r.Pop(&ctx); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	if r.Consumed() != uint64(before) {
		t.Fatalf("consumed = %d, want %d", r.Consumed(), before)
	}
}

// TestRingConcurrentStages drives a live producer/consumer pair — the
// runtime's deployment — under the race detector: packet identity and
// resume-node order must survive, and each side only touches its own Ctx.
func TestRingConcurrentStages(t *testing.T) {
	const total = 40000
	r := New(mem.NewArena(0), 64)
	packets := make([]*click.Packet, 256)
	for i := range packets {
		packets[i] = &click.Packet{Addr: hw.Addr(0x30000 + i*512)}
	}
	done := make(chan error, 1)
	go func() {
		var ctx click.Ctx
		next := 0
		for next < total {
			ctx.Ops = ctx.Ops[:0]
			p, node, fin, ok := r.Pop(&ctx)
			if !ok {
				r.PollEmpty(&ctx)
				stdruntime.Gosched()
				continue
			}
			if node != next%1024 || p != packets[next%len(packets)] || fin != (next%3 == 0) {
				done <- errMismatch{at: next}
				return
			}
			r.ChargeHeaderMiss(&ctx, p)
			next++
		}
		done <- nil
	}()
	var ctx click.Ctx
	for i := 0; i < total; {
		ctx.Ops = ctx.Ops[:0]
		if r.Push(&ctx, packets[i%len(packets)], i%1024, i%3 == 0) {
			i++
		} else {
			r.PollFull(&ctx)
			stdruntime.Gosched()
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 || r.Consumed() != total {
		t.Fatalf("after drain: len=%d consumed=%d", r.Len(), r.Consumed())
	}
}

type errMismatch struct{ at int }

func (e errMismatch) Error() string { return "handoff slot mismatch" }
