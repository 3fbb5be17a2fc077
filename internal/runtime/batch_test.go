package runtime

import (
	"bytes"
	"encoding/binary"
	"fmt"
	stdruntime "runtime"
	"slices"
	"testing"

	"pktpredict/internal/apps"
)

// TestRingPushPopBatchOrder pins the batched ring API's contract: a
// PushBatch publishes everything it accepted with one cursor store, a
// short return means the overflow was dropped exactly as scalar pushes
// would have dropped it, and PopBatch drains in FIFO order with lengths
// and stamps slot-parallel.
func TestRingPushPopBatchOrder(t *testing.T) {
	r := NewRing(8, 8)
	batch := make([][]byte, 12)
	for i := range batch {
		batch[i] = []byte{byte(i), 0xAA}
	}
	if got := r.PushBatch(batch, 42); got != 8 {
		t.Fatalf("PushBatch accepted %d, want 8 (ring capacity)", got)
	}
	if r.Len() != 8 {
		t.Fatalf("len = %d after batch publish, want 8", r.Len())
	}

	dsts := make([][]byte, 8)
	for i := range dsts {
		dsts[i] = make([]byte, 8)
	}
	lens := make([]int, 8)
	stamps := make([]uint64, 8)
	if got := r.PopBatch(dsts[:5], lens[:5], stamps[:5]); got != 5 {
		t.Fatalf("PopBatch popped %d, want 5", got)
	}
	for i := 0; i < 5; i++ {
		if lens[i] != 2 || dsts[i][0] != byte(i) || stamps[i] != 42 {
			t.Fatalf("pop %d: len=%d first=%d stamp=%d", i, lens[i], dsts[i][0], stamps[i])
		}
	}
	// The released slots are reusable: a refill round-trips through the
	// wrapped region.
	if got := r.PushBatch(batch[8:], 43); got != 4 {
		t.Fatalf("refill accepted %d, want 4", got)
	}
	want := []byte{5, 6, 7, 8, 9, 10, 11}
	if got := r.PopBatch(dsts[:7], lens[:7], stamps[:7]); got != 7 {
		t.Fatalf("drain popped %d, want 7", got)
	}
	for i, w := range want {
		if dsts[i][0] != w {
			t.Fatalf("drain %d: got %d, want %d", i, dsts[i][0], w)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("ring not empty after drain: len %d", r.Len())
	}
	if got := r.PopBatch(dsts[:1], lens[:1], stamps[:1]); got != 0 {
		t.Fatalf("PopBatch from empty ring returned %d", got)
	}
}

// TestRingBatchConcurrentWraparound stresses the staged-cursor SPSC
// discipline: a producer pushing variable-size batches races a consumer
// draining variable-size batches through a small ring, so both cursors
// wrap far past capacity and every publish/release boundary is crossed
// mid-batch. Run under -race this checks the single-store publish is the
// only synchronisation the batched paths need.
func TestRingBatchConcurrentWraparound(t *testing.T) {
	const total = 60000
	r := NewRing(16, 8)
	done := make(chan error, 1)
	go func() {
		dsts := make([][]byte, 7)
		for i := range dsts {
			dsts[i] = make([]byte, 8)
		}
		lens := make([]int, 7)
		stamps := make([]uint64, 7)
		next := uint64(0)
		for next < total {
			want := int(next%uint64(len(dsts))) + 1
			n := r.PopBatch(dsts[:want], lens[:want], stamps[:want])
			if n == 0 {
				stdruntime.Gosched()
				continue
			}
			for i := 0; i < n; i++ {
				if lens[i] != 8 {
					done <- bytes.ErrTooLarge
					return
				}
				if v := binary.LittleEndian.Uint64(dsts[i]); v != next {
					done <- errOutOfOrder{want: next, got: v}
					return
				}
				if stamps[i] != next/8 {
					done <- errOutOfOrder{want: next / 8, got: stamps[i]}
					return
				}
				next++
			}
		}
		done <- nil
	}()
	bufs := make([][]byte, 5)
	for i := range bufs {
		bufs[i] = make([]byte, 8)
	}
	for i := uint64(0); i < total; {
		n := int(i%uint64(len(bufs))) + 1
		if rem := total - i; uint64(n) > rem {
			n = int(rem)
		}
		for j := 0; j < n; j++ {
			binary.LittleEndian.PutUint64(bufs[j], i+uint64(j))
		}
		// All packets of one PushBatch share a stamp, so batches are cut
		// on stamp boundaries (every 8 packets here).
		stamp := i / 8
		if end := (stamp + 1) * 8; i+uint64(n) > end {
			n = int(end - i)
		}
		pushed := r.PushBatch(bufs[:n], stamp)
		i += uint64(pushed)
		if pushed < n {
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

// TestRingScalarBatchInterleave checks the scalar and batched APIs
// compose on the same ring: scalar Push publishes pending staged slots,
// scalar Pop releases pending taken slots, and occupancy accounting
// stays exact throughout.
func TestRingScalarBatchInterleave(t *testing.T) {
	r := NewRing(8, 8)
	if !r.Stage([]byte{1}, 0) || !r.Stage([]byte{2}, 0) {
		t.Fatal("stage failed")
	}
	// Scalar push after stages: all three publish together.
	if !r.Push([]byte{3}, 0) {
		t.Fatal("push failed")
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	dst := make([]byte, 8)
	if _, _, ok := r.PopStaged(dst); !ok || dst[0] != 1 {
		t.Fatalf("staged pop got %d", dst[0])
	}
	if r.Consumed() != 0 {
		t.Fatal("PopStaged released the slot")
	}
	// Scalar pop after a staged pop: both release together.
	if _, _, ok := r.Pop(dst); !ok || dst[0] != 2 {
		t.Fatalf("pop got %d", dst[0])
	}
	if r.Consumed() != 2 || r.Len() != 1 {
		t.Fatalf("consumed=%d len=%d, want 2/1", r.Consumed(), r.Len())
	}
}

// TestWorkerBatchOccupancyExcludesClipped pins the S2 fix: under a
// saturating load whose ring never runs dry, every occupancy-counted
// batch poll is full — quantum-truncated polls land in ClippedBatches
// instead of dragging the mean down. Before the fix the boundary-clipped
// partial batch of nearly every quantum was averaged in, biasing
// BatchOccupancy low by a worker-dependent amount.
func TestWorkerBatchOccupancyExcludesClipped(t *testing.T) {
	cfg := testConfig([]AppSpec{{Name: "mon", Type: apps.MON, Workers: 1}})
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	w := rep.Workers[0]
	if w.BatchOccupancy != 1.0 {
		t.Fatalf("saturated occupancy = %v, want exactly 1.0 (clipped polls excluded)", w.BatchOccupancy)
	}
	if w.ClippedBatches == 0 {
		t.Fatal("no clipped batch polls recorded under saturation — quantum boundaries must clip")
	}
	checkConservation(t, rep)
}

// TestOneStageTraceMatchesEmitPacket pins the fold of unstaged flows into
// chains of one stage at the op level: stage.step must emit exactly the
// trace run-to-completion Pipeline.EmitPacket emits over the worker's own
// FromDevice (pull → walk → recycle), packet for packet, and leave the
// same terminal counters on every node. At BATCH 4 the RX poll is charged
// once per four pulls on both sides.
func TestOneStageTraceMatchesEmitPacket(t *testing.T) {
	for _, tc := range []struct {
		typ   apps.FlowType
		batch int
	}{{apps.IP, 1}, {apps.FW, 1}, {apps.VPN, 1}, {apps.IP, 4}, {apps.FW, 4}, {apps.VPN, 4}} {
		name := string(tc.typ)
		if tc.batch > 1 {
			name += fmt.Sprintf("_BATCH_%d", tc.batch)
		}
		t.Run(name, func(t *testing.T) {
			build := func() *worker {
				cfg := testConfig([]AppSpec{{Name: "solo", Type: tc.typ, Workers: 1}})
				cfg.Params.RxBatch = tc.batch
				r, err := NewRuntime(cfg)
				if err != nil {
					t.Fatal(err)
				}
				r.disp.enqueue(0) // prime the receive ring; no worker runs
				return r.workers[0]
			}
			staged, rtc := build(), build()
			pipe := rtc.unit.fl.pipe
			pipe.Source = rtc.src
			for i := 0; i < 300; i++ {
				got := staged.unit.step(staged)
				staged.opbuf = got.ops
				want := pipe.EmitPacket(nil)
				if !got.packet || len(want) == 0 {
					t.Fatalf("packet %d: step packet=%v, EmitPacket emitted %d ops", i, got.packet, len(want))
				}
				if !slices.Equal(got.ops, want) {
					t.Fatalf("packet %d: one-stage trace (%d ops) differs from EmitPacket's (%d ops)", i, len(got.ops), len(want))
				}
				if got.lat == nil || got.trace != 0 || got.handed || got.dequeued {
					t.Fatalf("packet %d: a run-to-completion step must terminate untraced: %+v", i, got)
				}
			}
			// A one-stage runner ends every walk it starts.
			if run := staged.unit.runner; run.Finished+run.Dropped != 300 {
				t.Fatalf("runner ended %d/%d walks, want 300", run.Finished+run.Dropped, 300)
			}
			for k, n := range staged.unit.fl.pipe.Nodes() {
				if m := pipe.Nodes()[k]; n.Dropped != m.Dropped || n.Finished != m.Finished {
					t.Fatalf("node %s: one stage %d/%d dropped/finished, EmitPacket %d/%d", n.Name, n.Dropped, n.Finished, m.Dropped, m.Finished)
				}
			}
		})
	}
}

func BenchmarkRingPushPopBatch(b *testing.B) {
	r := NewRing(256, 64)
	const batch = 32
	bufs := make([][]byte, batch)
	dsts := make([][]byte, batch)
	for i := 0; i < batch; i++ {
		bufs[i] = make([]byte, 64)
		dsts[i] = make([]byte, 64)
	}
	lens := make([]int, batch)
	stamps := make([]uint64, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.PushBatch(bufs, uint64(i))
		r.PopBatch(dsts, lens, stamps)
	}
}
