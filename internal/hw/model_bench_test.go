package hw

import (
	"fmt"
	"math/rand"
	"testing"
)

// The cache model's two codegen-sensitive paths, timed without bench/:
// compare against a build of the parent commit (this file uses only the
// public API, so it drops into an older tree unchanged). What to look for
// is in the verify skill: the victim scan — four strided lanes when the
// ways are a multiple of four, as both geometries below are, one serial
// chain otherwise — must stay free of conditional jumps other than its
// loops' back-edges.

// BenchmarkCacheFill times Insert on full sets, so every insert evicts.
// The resident lines are touched in random order first: each set's
// least recently used way is then at an unpredictable position, and stays
// so, because a set's ways are refilled in the order they were stamped.
func BenchmarkCacheFill(b *testing.B) {
	for _, g := range []CacheGeom{{SizeBytes: 32 << 10, Ways: 8}, {SizeBytes: 1 << 20, Ways: 16}} {
		b.Run(fmt.Sprintf("%dway", g.Ways), func(b *testing.B) {
			c := NewCache("fill", g, ReplaceLRU)
			lines := g.SizeBytes / LineSize
			rnd := rand.New(rand.NewSource(1))
			for i := 0; i < lines; i++ {
				c.Insert(Addr(i)*LineSize, false)
			}
			for _, i := range rnd.Perm(lines) {
				c.Access(Addr(i)*LineSize, false)
			}
			// 4x the capacity of absent lines in random set order: by the
			// time the slice wraps, its head has long been evicted again.
			addrs := make([]Addr, 4*lines)
			for i, l := range rnd.Perm(len(addrs)) {
				addrs[i] = Addr(lines+l) * LineSize
			}
			evictions := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, evicted := c.Insert(addrs[i&(len(addrs)-1)], false); evicted {
					evictions++
				}
			}
			if evictions != b.N {
				b.Fatalf("%d of %d inserts evicted", evictions, b.N)
			}
		})
	}
}

// BenchmarkCoreAccessMiss times the whole miss path: one core streams
// over four times the L3 while five peers sit idle, so every access
// misses all three levels, evicts at each and back-invalidates the L3
// victim — from the one core that can hold it, not from all six.
func BenchmarkCoreAccessMiss(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Sockets = 1
	cfg.L1D = CacheGeom{SizeBytes: 4 << 10, Ways: 4}
	cfg.L2 = CacheGeom{SizeBytes: 32 << 10, Ways: 8}
	cfg.L3 = CacheGeom{SizeBytes: 1 << 20, Ways: 16}
	c := NewPlatform(cfg).Cores[0]
	span := 4 * cfg.L3.SizeBytes / LineSize
	var now uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += c.Access(now, Addr(i%span)*LineSize, false, FuncOther)
	}
	if c.Counters.L3Misses != uint64(b.N) {
		b.Fatalf("%d of %d accesses missed the L3", c.Counters.L3Misses, b.N)
	}
}
