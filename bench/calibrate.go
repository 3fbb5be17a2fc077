package main

import (
	gort "runtime"
	"sync"
	"time"
)

// The box this runs on changes speed under the benchmark: for minutes at
// a time everything — a single-threaded profile pass as much as a
// six-worker run — takes 20-40% longer, then recovers (a neighbour on the
// same host, most likely). A run lasts seconds, so no amount of repetition
// inside it averages that out, and ten runs straddling such an episode
// disagree by more than any regression worth catching.
//
// So host times are reported in reference seconds: wall seconds scaled by
// how fast a fixed kernel ran immediately before and after the thing
// being timed, relative to how fast it runs on the reference box when
// that box is quiet. The kernel is the harness's own code, so no change
// to the program can move it. It has two halves, equal on the quiet
// reference box, because the slow episodes hit the two unequally and the
// simulator is made of both: dependent loads at random offsets of a table
// the size of the host's L2, and a dependent chain of multiply, compare
// and shift over a set's worth of words in L1. Probed against a profile
// pass and a contended run over twenty minutes, either half alone tracks
// the workloads worse than their sum (README.md has the numbers). It runs
// on every CPU at once. The clock's own reading is kept beside every
// calibrated number.
const (
	calTableWords   = 1 << 18 // 2 MiB per CPU
	calChaseSteps   = 400_000 // dependent loads per round
	calComputeSteps = 420_000 // way scans per round
	calWays         = 16      // words per scan
	calRounds       = 7       // the median round is the reading
	// calReference is one round on the reference box (2-vCPU Xeon
	// 2.1 GHz) when quiet, in seconds: there, and then, a reference
	// second is a second.
	calReference = 0.0120
)

type calibrator struct {
	tables [][]uint64
	rounds int
	last   float64 // the most recent reading
	sink   uint64
}

// newCalibrator builds the tables and spins for warm: a process's first
// tenths of a second run at half speed (a cold, just-woken CPU), and the
// first reading must not be taken there.
func newCalibrator(rounds int, warm time.Duration) *calibrator {
	c := &calibrator{rounds: rounds}
	for range gort.GOMAXPROCS(0) {
		t := make([]uint64, calTableWords)
		x := uint64(88172645463325252)
		for i := range t { // xorshift64: fixed contents, no seed to choose
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			t[i] = x
		}
		c.tables = append(c.tables, t)
	}
	for start := time.Now(); time.Since(start) < warm; {
		c.round()
	}
	return c
}

// heapBytes is what the tables add to the live heap, so that heap_mb can
// leave the harness's own reference out of the simulator's footprint.
func (c *calibrator) heapBytes() uint64 { return uint64(len(c.tables)) * calTableWords * 8 }

// round runs the kernel on every CPU at once and returns the mean time.
func (c *calibrator) round() float64 {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var total time.Duration
	for _, table := range c.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ways [calWays]uint64
			start := time.Now()
			idx, acc := uint64(1), uint64(0)
			for i := uint64(0); i < calChaseSteps; i++ {
				idx = table[idx&(calTableWords-1)] + i
				acc += idx ^ acc>>7
			}
			for range calComputeSteps {
				idx = idx*6364136223846793005 + acc
				for _, w := range ways {
					if w == idx {
						acc++
					}
					acc += w >> 3
				}
				ways[idx%calWays] = idx
			}
			d := time.Since(start)
			mu.Lock()
			total += d
			c.sink += acc // keeps the loop from being optimised away
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total.Seconds() / float64(len(c.tables))
}

// speed reads the machine's speed relative to the reference: above 1 it
// is faster, and a wall time multiplied by it is in reference seconds.
// The reading is kept: the one that ends a rep begins the next.
func (c *calibrator) speed(tr *tracer) float64 {
	t := tr.begin("bench.calibrate")
	defer t.end()
	rounds := make([]float64, c.rounds)
	for i := range rounds {
		rounds[i] = c.round()
	}
	c.last = calReference / median(rounds)
	return c.last
}
