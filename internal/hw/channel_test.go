package hw

import (
	"testing"
	"testing/quick"
)

// served is the requests ch has served: the sum of its wait histogram.
func served(ch *Channel) (n uint64) {
	for _, k := range ch.waitHist {
		n += k
	}
	return n
}

func TestChannelNoContentionNoWait(t *testing.T) {
	ch := NewChannel("mem", 10)
	if w := ch.Occupy(100); w != 0 {
		t.Fatalf("first request wait = %d, want 0", w)
	}
	if w := ch.Occupy(200); w != 0 {
		t.Fatalf("spaced request wait = %d, want 0", w)
	}
}

// TestChannelUtilization checks the channel at half utilization: requests
// spaced twice the service time apart never queue, and the histogram agrees.
func TestChannelUtilization(t *testing.T) {
	ch := NewChannel("mem", 10)
	for i := 0; i < 5; i++ {
		if w := ch.Occupy(uint64(i) * 20); w != 0 {
			t.Fatalf("request %d at half load waited %d", i, w)
		}
	}
	if served(ch) != 5 || ch.WaitQuantile(1) != 0 {
		t.Fatalf("%d requests, max wait bucket %d; want 5 and 0", served(ch), ch.WaitQuantile(1))
	}
}

func TestChannelBackToBackQueues(t *testing.T) {
	ch := NewChannel("mem", 10)
	ch.Occupy(0) // busy until 10
	if w := ch.Occupy(0); w != 10 {
		t.Fatalf("second request wait = %d, want 10", w)
	}
	if w := ch.Occupy(0); w != 20 {
		t.Fatalf("third request wait = %d, want 20", w)
	}
	// Waits 0, 10 and 20 land in buckets 0, [8,16) and [16,32).
	if served(ch) != 3 || ch.waitHist[0] != 1 || ch.waitHist[4] != 1 || ch.waitHist[5] != 1 {
		t.Fatalf("wait histogram %v", ch.waitHist)
	}
}

func TestChannelDrainsAfterIdle(t *testing.T) {
	ch := NewChannel("mem", 10)
	ch.Occupy(0)
	ch.Occupy(0)
	if w := ch.Occupy(1000); w != 0 {
		t.Fatalf("request after idle gap waited %d, want 0", w)
	}
}

func TestChannelReset(t *testing.T) {
	ch := NewChannel("mem", 10)
	ch.Occupy(0)
	ch.Occupy(0)
	ch.Reset()
	if ch.waitHist != [waitBuckets]uint64{} {
		t.Fatalf("wait histogram not reset: %v", ch.waitHist)
	}
	if w := ch.Occupy(0); w != 0 {
		t.Fatalf("wait after reset = %d, want 0", w)
	}
}

// Property: with monotonically non-decreasing arrivals, total wait equals
// sum of per-request waits and service never overlaps: the k-th request
// starts no earlier than the (k-1)-th start + service.
func TestChannelFCFSQuick(t *testing.T) {
	f := func(gaps []uint8) bool {
		ch := NewChannel("q", 7)
		now := uint64(0)
		prevStart := int64(-7)
		for _, g := range gaps {
			now += uint64(g)
			wait := ch.Occupy(now)
			start := int64(now + wait)
			if start < prevStart+7 {
				return false
			}
			prevStart = start
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChannelMaxWaitBoundsQueueing(t *testing.T) {
	ch := NewChannel("mem", 10)
	ch.MaxWait = 15
	for i := 0; i < 10; i++ {
		ch.Occupy(0)
	}
	// Unbounded FCFS would charge the 10th request 90 cycles; the finite
	// queue caps every individual wait.
	if w := ch.Occupy(0); w != 15 {
		t.Fatalf("bounded wait = %d, want 15", w)
	}
	// A request arriving after the backlog clears waits nothing, and
	// nextFree never regressed below its high-water mark.
	if w := ch.Occupy(10_000); w != 0 {
		t.Fatalf("wait after idle gap = %d, want 0", w)
	}
}

func TestChannelWaitQuantile(t *testing.T) {
	ch := NewChannel("t", 10)
	if got := ch.WaitQuantile(0.99); got != 0 {
		t.Fatalf("empty channel p99 = %d, want 0", got)
	}
	// 9 zero-wait requests (well spaced) and one back-to-back request
	// that waits 10 cycles: p50 is zero, p99 lands in the waiters' bucket.
	now := uint64(0)
	for i := 0; i < 9; i++ {
		if w := ch.Occupy(now); w != 0 {
			t.Fatalf("spaced request waited %d", w)
		}
		now += 100
	}
	if w := ch.Occupy(now - 100 + 1); w != 9 {
		t.Fatalf("back-to-back wait = %d, want 9", w)
	}
	if p50 := ch.WaitQuantile(0.5); p50 != 0 {
		t.Fatalf("p50 = %d, want 0", p50)
	}
	p99 := ch.WaitQuantile(0.99)
	if p99 < 9 || p99 > 15 {
		t.Fatalf("p99 = %d, want the [8,16) bucket's upper edge", p99)
	}
	ch.Reset()
	if got := ch.WaitQuantile(0.99); got != 0 {
		t.Fatalf("post-reset p99 = %d, want 0", got)
	}
}

// TestWaitBucketEdges pins the histogram's bucket edges to the values
// the shift loop that waitBucket replaced produced: bucket 0 is zero
// wait, bucket i covers [2^(i-1), 2^i), the last bucket is open-ended.
func TestWaitBucketEdges(t *testing.T) {
	loop := func(wait uint64) int {
		b := 0
		for wait > 0 && b < waitBuckets-1 {
			b++
			wait >>= 1
		}
		return b
	}
	for wait, want := range map[uint64]int{
		0: 0, 1: 1, 2: 2, 3: 2, 1 << 14: 15, 1<<15 - 1: 15, 1 << 15: 16, 1 << 40: 16, ^uint64(0): 16,
	} {
		if got := waitBucket(wait); got != want || got != loop(wait) {
			t.Errorf("waitBucket(%d) = %d, want %d (the loop gives %d)", wait, got, want, loop(wait))
		}
	}
}
