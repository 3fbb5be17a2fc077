// Package rng provides a small, fast, deterministic pseudo-random number
// generator (splitmix64) used by every traffic generator and synthetic
// workload in the system. The experiments must be exactly reproducible —
// two runs with the same seed produce identical packets, identical memory
// traces, and therefore identical performance counters — so nothing in
// the measurement path may use math/rand's global, seed-racy state.
package rng

import "encoding/binary"

// RNG is a splitmix64 generator. The zero value is a valid generator
// seeded with 0; prefer New to decorrelate seeds.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. Distinct seeds, even
// consecutive integers, yield decorrelated streams: splitmix64 was
// designed exactly for that use.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// gamma is splitmix64's increment: n draws add n·gamma to the state.
const gamma = 0x9e3779b97f4a7c15

// At returns New(seed) as it stands after n draws, in O(1).
func At(seed, n uint64) RNG { return RNG{state: seed + n*gamma} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 pseudo-random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift range reduction; bias is negligible for the
	// ranges used here (simulation parameters, not cryptography).
	return int((r.Uint64() >> 32) * uint64(n) >> 32)
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Fill writes pseudo-random bytes into b.
func (r *RNG) Fill(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}
