package hw

import (
	"math/bits"
	"sync"
)

// Channel models a bandwidth-limited, first-come-first-served shared
// resource: a memory controller's command pipeline or a QPI link. Each
// request occupies the channel for ServiceCycles; a request arriving while
// the channel is busy waits until it frees. Queueing delay under load is
// therefore emergent, which is how the simulation reproduces the paper's
// Figure 4(b) (contention for the memory controller) and the slow growth
// of the effective miss penalty with competition noted in Section 3.3.
//
// A shared channel (see Platform.BoundChannelWaits) is a leaf lock: cores
// on any socket may Occupy it at once (local misses, remote QPI traffic,
// posted write-backs). The single-threaded engine's channels never lock.
type Channel struct {
	Name          string
	ServiceCycles uint64

	// MaxWait, when positive, bounds the queueing delay any single
	// request can suffer — a finite controller queue. The deterministic
	// engine leaves it zero (unbounded FCFS); concurrent execution sets
	// it (see Platform.BoundChannelWaits) because lax clock
	// synchronisation lets one core replay its quantum after a
	// neighbour's in host order, and unbounded FCFS would then charge it
	// the neighbour's whole quantum as phantom queueing.
	MaxWait uint64

	mu       sync.Mutex
	shared   bool // Occupy takes mu
	nextFree uint64

	// waitHist counts requests by queueing delay in power-of-two buckets:
	// bucket 0 is zero wait, bucket i ≥ 1 covers [2^(i-1), 2^i); its sum
	// is the requests served. It feeds
	// WaitQuantile, which is how DefaultMaxQueueWait (the concurrent
	// runtime's finite-queue bound) is tuned against the deterministic
	// engine's observed tail waits.
	waitHist [waitBuckets]uint64
}

// waitBuckets bounds the histogram: the last bucket absorbs every wait
// of 2^(waitBuckets-2) cycles or more (≈ 32k cycles, far beyond any
// plausible queue).
const waitBuckets = 17

// NewChannel builds a channel that serves one request every serviceCycles.
func NewChannel(name string, serviceCycles uint64) *Channel {
	return &Channel{Name: name, ServiceCycles: serviceCycles}
}

// Occupy reserves the channel for one request arriving at virtual time
// now and returns the queueing delay the request experiences before
// service begins. The caller adds any fixed latency (e.g. DRAM access
// time) itself.
func (ch *Channel) Occupy(now uint64) (wait uint64) {
	if ch.shared {
		ch.mu.Lock()
		defer ch.mu.Unlock()
	}
	start := now
	if ch.nextFree > start {
		start = ch.nextFree
	}
	wait = start - now
	if ch.MaxWait > 0 && wait > ch.MaxWait {
		wait = ch.MaxWait
		start = now + wait
	}
	// A capped request overlaps time already reserved: the horizon only
	// ever moves forward.
	ch.nextFree = max(ch.nextFree, start+ch.ServiceCycles)
	ch.waitHist[waitBucket(wait)]++
	return wait
}

// waitBucket maps a wait to its histogram bucket.
func waitBucket(wait uint64) int { return min(bits.Len64(wait), waitBuckets-1) }

// WaitQuantile returns an upper bound on the q-quantile (q in [0,1]) of
// per-request queueing delay: the inclusive upper edge of the histogram
// bucket the quantile falls in. Zero when the channel saw no requests.
// The histogram's last bucket is open-ended, so the result saturates at
// 2^16−1: a quantile landing among waits of ≥ 2^15 cycles (far beyond
// any bounded queue; MaxWait caps concurrent-mode waits two orders of
// magnitude lower) reports that cap, not a true upper bound.
func (ch *Channel) WaitQuantile(q float64) uint64 {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	var requests uint64
	for _, n := range ch.waitHist {
		requests += n
	}
	if requests == 0 {
		return 0
	}
	target := uint64(q * float64(requests))
	if float64(target) < q*float64(requests) {
		target++ // ceiling: the quantile request itself must be covered
	}
	if target < 1 {
		target = 1
	}
	var cum uint64
	for b, n := range ch.waitHist {
		cum += n
		if cum >= target {
			if b == 0 {
				return 0
			}
			return 1<<b - 1
		}
	}
	return 1<<(waitBuckets-1) - 1
}

// Reset returns the channel to its constructed state: idle, unbounded,
// unshared, without statistics. Call it only while nothing occupies it.
func (ch *Channel) Reset() {
	*ch = Channel{Name: ch.Name, ServiceCycles: ch.ServiceCycles}
}
