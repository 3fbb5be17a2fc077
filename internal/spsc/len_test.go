package spsc

import "testing"

// TestLenBoundedForAnyReader is the ordering argument behind Len, run
// deterministically. A third-party reader can be descheduled between its
// two loads, so what it combines is one cursor as of one moment and the
// other as of a later one. Drive a ring through fills, drains and several
// wraps recording both cursors after every operation, then show Len every
// pairing of a moment's head with a later moment's tail: it stays inside
// [0, Cap] on all of them, while the order Len used to load in (tail
// first) goes negative on this very history — which is how
// TestRingConcurrentWithTelemetryReaders failed under -race on a loaded
// host.
func TestLenBoundedForAnyReader(t *testing.T) {
	var c Cursor
	c.Init(4)
	type moment struct{ head, tail uint64 }
	history := []moment{{}}
	record := func() { history = append(history, moment{c.Consumed(), c.Produced()}) }
	for round := 0; round < 6; round++ {
		for batch := 1; batch <= 3; batch++ {
			for i := 0; i < batch; i++ {
				c.Stage()
			}
			c.Commit()
			record()
			for i := 0; i < round%3+1; i++ {
				c.Take()
			}
			c.Release()
			record()
		}
	}
	if last := history[len(history)-1]; last.head < 3*uint64(c.Cap()) {
		t.Fatalf("history ends at head %d: the ring never wrapped", last.head)
	}
	var seen Cursor // what a descheduled reader sees: never a state the ring was in
	seen.Init(4)
	clamped, negative := false, false
	for i, early := range history {
		for _, late := range history[i:] {
			seen.head.Store(early.head)
			seen.tail.Store(late.tail)
			if n := seen.Len(); n < 0 || n > seen.Cap() {
				t.Fatalf("head %d then tail %d: Len = %d outside [0,%d]", early.head, late.tail, n, seen.Cap())
			}
			clamped = clamped || late.tail-early.head > seen.size
			negative = negative || int64(early.tail-late.head) < 0
		}
	}
	if !clamped || !negative {
		t.Fatalf("history too tame to exercise the argument: clamp needed %v, tail-first negative %v", clamped, negative)
	}
}
