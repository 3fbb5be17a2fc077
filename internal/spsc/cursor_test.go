package spsc_test

import (
	"encoding/binary"
	"fmt"
	stdruntime "runtime"
	"testing"

	"pktpredict/internal/click"
	"pktpredict/internal/handoff"
	"pktpredict/internal/mem"
	"pktpredict/internal/runtime"
	"pktpredict/internal/spsc"
)

// ringOps drives one SPSC ring through its staged API carrying a bare
// sequence number, so one stress body covers the cursor and both rings
// built on it. stage/commit run on the producer goroutine only,
// take/release on the consumer only.
type ringOps struct {
	name     string
	stage    func(seq uint64) bool
	commit   func()
	take     func() (uint64, bool)
	release  func()
	len, cap func() int
	consumed func() uint64
}

func rings(capacity int) []ringOps {
	var cur spsc.Cursor
	slots := make([]uint64, cur.Init(capacity))

	br := runtime.NewRing(capacity, 8)
	var in, out [8]byte

	hr := handoff.New(mem.NewArena(0), capacity)
	var pctx, cctx click.Ctx
	pkts := make([]click.Packet, 4*capacity) // reused only after the ring wrapped twice

	return []ringOps{
		{
			name: "spsc.Cursor",
			stage: func(seq uint64) bool {
				i, ok := cur.Stage()
				if ok {
					slots[i] = seq
				}
				return ok
			},
			commit: func() { cur.Commit() },
			take: func() (uint64, bool) {
				i, ok := cur.Take()
				if !ok {
					return 0, false
				}
				return slots[i], true
			},
			release: func() { cur.Release() },
			len:     cur.Len, cap: cur.Cap, consumed: cur.Consumed,
		},
		{
			name: "runtime.Ring",
			stage: func(seq uint64) bool {
				binary.LittleEndian.PutUint64(in[:], seq)
				return br.Stage(in[:], seq)
			},
			commit: func() { br.Commit() },
			take: func() (uint64, bool) {
				n, stamp, ok := br.PopStaged(out[:])
				if !ok {
					return 0, false
				}
				if v := binary.LittleEndian.Uint64(out[:]); n != 8 || v != stamp {
					return ^uint64(0), true // torn slot: fails the order check
				}
				return stamp, true
			},
			release: func() { br.Release() },
			len:     br.Len, cap: br.Cap, consumed: br.Consumed,
		},
		{
			name: "handoff.Ring",
			stage: func(seq uint64) bool {
				pctx.Ops = pctx.Ops[:0]
				return hr.StagePush(&pctx, &pkts[seq%uint64(len(pkts))], int(seq%1021), seq%3 == 0)
			},
			commit: func() { pctx.Ops = pctx.Ops[:0]; hr.CommitPush(&pctx) },
			take: func() (uint64, bool) {
				cctx.Ops = cctx.Ops[:0]
				p, node, fin, ok := hr.PopStaged(&cctx)
				if !ok {
					return 0, false
				}
				// Recover the sequence number from the slot's three fields;
				// any field from a neighbouring slot breaks the order check.
				for seq := hr.Consumed(); seq < hr.Consumed()+uint64(hr.Cap()); seq++ {
					if p == &pkts[seq%uint64(len(pkts))] && node == int(seq%1021) && fin == (seq%3 == 0) {
						return seq, true
					}
				}
				return ^uint64(0), true
			},
			release: func() { cctx.Ops = cctx.Ops[:0]; hr.CommitPop(&cctx) },
			len:     hr.Len, cap: hr.Cap, consumed: hr.Consumed,
		},
	}
}

// TestStagedWraparound stresses the staged-cursor SPSC discipline once
// for everything built on it: a producer staging variable-size batches
// races a consumer taking variable-size batches through a small ring, so
// both cursors wrap far past capacity and every publish/release boundary
// is crossed mid-batch. Order, loss-freedom, occupancy bounds and the
// final cursor positions are asserted; run under -race this checks the
// single-store publish/release is the only synchronisation needed.
func TestStagedWraparound(t *testing.T) {
	const total = 40000
	for _, r := range rings(16) {
		t.Run(r.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				for next := uint64(0); next < total; {
					want := int(next%7) + 1 // batch cut, 1..7
					got := 0
					for ; got < want; got++ {
						seq, ok := r.take()
						if !ok {
							break
						}
						if seq != next {
							done <- fmt.Errorf("took %d, want %d", seq, next)
							return
						}
						next++
					}
					r.release()
					if l := r.len(); l < 0 || l > r.cap() {
						done <- fmt.Errorf("occupancy %d outside [0,%d]", l, r.cap())
						return
					}
					if got == 0 {
						stdruntime.Gosched()
					}
				}
				done <- nil
			}()
			for seq := uint64(0); seq < total; {
				want := int(seq%5) + 1 // batch cut, 1..5
				staged := 0
				for ; staged < want && seq < total && r.stage(seq); staged++ {
					seq++
				}
				r.commit()
				if staged < want {
					stdruntime.Gosched()
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if r.len() != 0 || r.consumed() != total {
				t.Fatalf("after drain: len=%d consumed=%d, want 0/%d", r.len(), r.consumed(), total)
			}
		})
	}
}
