package dpi

import (
	"math"
	"sort"
	"testing"

	"pktpredict/internal/rng"
)

// entropyBound is the property the estimator promises: within
// EntropyErrorBoundBits absolute or EntropyErrorBoundRel relative of the
// exact payload entropy, whichever is looser.
func entropyBound(exact float64) float64 {
	if rel := exact * EntropyErrorBoundRel; rel > EntropyErrorBoundBits {
		return rel
	}
	return EntropyErrorBoundBits
}

// zipfFill fills b with byte values drawn from a Zipf distribution of
// exponent s over the 256 ranks, by inverse-CDF search.
func zipfFill(r *rng.RNG, b []byte, s float64) {
	var cdf [256]float64
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range b {
		b[i] = byte(sort.SearchFloat64s(cdf[:], r.Float64()*sum))
	}
}

func TestEstimateBitsWithinBoundAcrossDistributions(t *testing.T) {
	r := rng.New(0xe27)
	var est Entropy
	check := func(name string, payload []byte) {
		t.Helper()
		exact := ExactEntropyBits(payload)
		got := est.EstimateBits(payload, EntropyWindow)
		if diff := math.Abs(got - exact); diff > entropyBound(exact) {
			t.Fatalf("%s (%d bytes): estimate %.4f vs exact %.4f, |diff| %.4f > bound %.4f",
				name, len(payload), got, exact, diff, entropyBound(exact))
		}
	}
	for trial := 0; trial < 10; trial++ {
		for _, size := range []int{64, 256, 512, 1024, 2048, 4096} {
			// Uniform over 2^bits alphabets, the generator's
			// LowEntropyBits shapes: masking uniform bytes keeps the draw
			// uniform over the smaller alphabet.
			for bits := 0; bits <= 8; bits++ {
				payload := make([]byte, size)
				r.Fill(payload)
				mask := byte(1<<bits - 1)
				for i := range payload {
					payload[i] &= mask
				}
				check("uniform", payload)
			}
			// Heavily skewed: mostly one value with uniform noise mixed
			// in at increasing rates — the sparse singleton tail is the
			// estimator's worst case.
			for _, noise := range []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9} {
				payload := make([]byte, size)
				for i := range payload {
					if r.Float64() < noise {
						payload[i] = byte(r.Uint32())
					} else {
						payload[i] = 0x41
					}
				}
				check("skewed", payload)
			}
			// Zipf-distributed symbols, the classic heavy-tail case.
			payload := make([]byte, size)
			zipfFill(rng.New(uint64(size)+uint64(trial)), payload, 1.2)
			check("zipf", payload)
		}
	}
}

func TestEstimateBitsExactWhenWindowCoversPayload(t *testing.T) {
	// window >= len(payload) samples every byte, so the subsample bias
	// correction vanishes and the estimate is the exact entropy.
	payload := []byte("aaaabbbbccccdddd")
	var est Entropy
	exact := ExactEntropyBits(payload)
	got := est.EstimateBits(payload, len(payload))
	if diff := math.Abs(got - exact); diff > 1e-9 {
		t.Fatalf("full-window estimate %.9f, want exact %.9f", got, exact)
	}
}

func TestEstimateBitsEdgeCases(t *testing.T) {
	var est Entropy
	if got := est.EstimateBits(nil, EntropyWindow); got != 0 {
		t.Fatalf("EstimateBits(nil) = %v, want 0", got)
	}
	one := []byte{7}
	if got := est.EstimateBits(one, 0); got != 0 {
		t.Fatalf("single-byte payload has entropy %v, want 0", got)
	}
	// Clamped at 8 bits/byte no matter the correction.
	payload := make([]byte, 4096)
	rng.New(5).Fill(payload)
	if got := est.EstimateBits(payload, len(payload)); got > 8 {
		t.Fatalf("estimate %v exceeds 8 bits/byte", got)
	}
	// The struct is reusable: a low-entropy estimate right after a
	// high-entropy one must not inherit stale counts.
	r := rng.New(9)
	hi := make([]byte, 1024)
	r.Fill(hi)
	est.EstimateBits(hi, EntropyWindow)
	lo := make([]byte, 1024) // all zeros
	if got := est.EstimateBits(lo, EntropyWindow); got != 0 {
		t.Fatalf("stale counts: zero payload estimated at %v bits", got)
	}
}
