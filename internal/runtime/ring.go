package runtime

import (
	"fmt"

	"pktpredict/internal/spsc"
)

// Ring is a bounded single-producer single-consumer queue of packets,
// the software analogue of a NIC receive queue: the dispatcher (the
// "NIC") produces into it, exactly one worker consumes from it. Packet
// bytes are copied into pre-allocated slots, so steady-state operation
// performs no allocation; when the ring is full the producer drops the
// packet, which is precisely how input overload surfaces on a real
// dataplane (tail drop at the receive queue).
//
// The head/tail protocol — including the batched form, where the producer
// stages slots and publishes them with one tail store (Stage, Commit) and
// the consumer reads ahead and frees the slots with one head store
// (PopStaged, Release) — is the embedded spsc.Cursor's, which also
// supplies Cap, Len and Consumed. The ring itself only copies bytes and
// stamps into and out of the slots the cursor hands it.
type Ring struct {
	spsc.Cursor
	slots  [][]byte
	lens   []int32
	stamps []uint64 // enqueue timestamps (virtual cycles), slot-parallel
}

// NewRing builds a ring of the given capacity (rounded up to a power of
// two, minimum 2) whose slots hold packets of up to maxPacket bytes.
func NewRing(capacity, maxPacket int) *Ring {
	if capacity <= 0 || maxPacket <= 0 {
		panic(fmt.Sprintf("runtime: invalid ring %d x %d", capacity, maxPacket))
	}
	r := &Ring{}
	n := r.Init(capacity)
	r.slots = make([][]byte, n)
	r.lens = make([]int32, n)
	r.stamps = make([]uint64, n)
	for i := range r.slots {
		r.slots[i] = make([]byte, maxPacket)
	}
	return r
}

// Push copies p into the ring, stamped with the virtual-cycle time at
// which it was enqueued (the start of the packet's end-to-end latency).
// It returns false — the packet is dropped — when the ring is full or p
// exceeds the slot size. Only the single producer may call Push. A Push
// also publishes any slots the producer had staged.
//
//dataplane:hotpath
func (r *Ring) Push(p []byte, stamp uint64) bool {
	ok := r.Stage(p, stamp)
	r.Commit()
	return ok
}

// Stage copies p into the next free slot without publishing it: the
// consumer cannot see staged slots until Commit stores the tail cursor
// once for the whole batch. Returns false when the ring (including
// already-staged slots) is full or p exceeds the slot size. Only the
// single producer may call Stage.
//
//dataplane:hotpath
func (r *Ring) Stage(p []byte, stamp uint64) bool {
	if len(p) > len(r.slots[0]) {
		return false
	}
	i, ok := r.Cursor.Stage()
	if !ok {
		return false
	}
	copy(r.slots[i], p)
	r.lens[i] = int32(len(p))
	r.stamps[i] = stamp
	return true
}

// PushBatch stages every packet of ps (all stamped alike) and publishes
// them with one tail store. It returns how many were accepted; a short
// return means the ring filled (packets beyond the return were dropped,
// exactly as scalar Push would have dropped them one by one).
//
//dataplane:hotpath
func (r *Ring) PushBatch(ps [][]byte, stamp uint64) int {
	n := 0
	for _, p := range ps {
		if !r.Stage(p, stamp) {
			break
		}
		n++
	}
	r.Commit()
	return n
}

// Pop copies the next packet into dst and returns its length and enqueue
// stamp. It returns ok=false when the ring is empty. Only the single
// consumer may call Pop; dst must hold at least the ring's maxPacket
// bytes. A Pop also releases any slots the consumer had consumed via
// PopStaged.
//
//dataplane:hotpath
func (r *Ring) Pop(dst []byte) (n int, stamp uint64, ok bool) {
	n, stamp, ok = r.PopStaged(dst)
	r.Release()
	return n, stamp, ok
}

// PopStaged copies the next packet into dst without releasing its slot:
// the producer cannot reuse consumed slots until Release stores the head
// cursor once for the whole batch. Returns ok=false when the ring
// (beyond already-consumed slots) is empty. Only the single consumer may
// call PopStaged.
//
//dataplane:hotpath
func (r *Ring) PopStaged(dst []byte) (n int, stamp uint64, ok bool) {
	i, ok := r.Take()
	if !ok {
		return 0, 0, false
	}
	n = int(r.lens[i])
	copy(dst[:n], r.slots[i])
	return n, r.stamps[i], true
}

// PopBatch drains up to len(dsts) packets into the caller's buffers and
// releases them with one head store. lens and stamps receive the
// per-packet lengths and enqueue stamps; all three slices must be the
// same length. It returns how many packets were popped.
//
//dataplane:hotpath
func (r *Ring) PopBatch(dsts [][]byte, lens []int, stamps []uint64) int {
	n := 0
	for n < len(dsts) {
		ln, stamp, ok := r.PopStaged(dsts[n])
		if !ok {
			break
		}
		lens[n] = ln
		stamps[n] = stamp
		n++
	}
	r.Release()
	return n
}
