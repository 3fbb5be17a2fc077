package hw

import (
	"fmt"
	"math/bits"
)

// CacheGeom describes the geometry of one cache level.
type CacheGeom struct {
	SizeBytes int // total capacity
	Ways      int // associativity; 1 means direct-mapped
}

// Sets returns the number of sets implied by the geometry.
func (g CacheGeom) Sets() int {
	lines := g.SizeBytes / LineSize
	if g.Ways <= 0 || lines == 0 || lines%g.Ways != 0 {
		panic(fmt.Sprintf("hw: invalid cache geometry %+v", g))
	}
	return lines / g.Ways
}

// ReplacementPolicy selects how a victim way is chosen on insertion.
// The platform's caches use (pseudo-)LRU; the alternatives exist for the
// ablation benchmarks that quantify how much of the paper's behaviour
// depends on the replacement policy.
type ReplacementPolicy uint8

const (
	// ReplaceLRU evicts the least-recently-used way.
	ReplaceLRU ReplacementPolicy = iota
	// ReplaceRandom evicts a deterministically pseudo-random way.
	ReplaceRandom
)

// A way is two words in two parallel arrays, tags[i] and words[i] with
// i = set*ways + way. The tag is the full line address (addr >> LineShift),
// invalidTag when the way is empty. The recency word packs, low to high:
// the dirty bit, holderBits holder bits (used by the inclusive L3: which
// cores may hold a private copy), the way's inverted index (ways-1-way)
// and the use stamp. An empty way's word is its index field alone, so the
// unsigned minimum over a set's words is the highest-index empty way when
// there is one and the least recently used way otherwise — see "The cache
// model" in docs/ARCHITECTURE.md for why each rule is exact.
const (
	invalidTag = ^uint64(0)

	dirtyBit    = 1
	holderShift = 1
	holderBits  = 16
	idxShift    = holderShift + holderBits

	// maxWays keeps the stamp at 39 bits or more below a clear sign bit
	// (the victim scan subtracts words as signed numbers).
	maxWays = 128
)

// Cache is a set-associative, write-back, write-allocate cache with a
// configurable replacement policy. It models presence and recency only;
// latency is charged by the access path in Platform, and coherence across
// private caches is handled by the inclusive-L3 back-invalidation logic.
// It counts nothing: references, hits and misses are counted per core in
// Counters.
//
// The zero value is not usable; construct with NewCache.
type Cache struct {
	Name   string
	geom   CacheGeom // what alloc makes at the first fill
	tags   []uint64
	words  []uint64
	sets   uint64
	ways   int // 0 until the first fill, so find scans no way
	policy ReplacementPolicy
	clock  uint64 // stamp of the latest touch, in field position
	tick   uint64 // one stamp: the lowest bit of the stamp field
	rng    uint64 // state for ReplaceRandom victim selection
}

// NewCache builds a cache with the given geometry and replacement policy.
// It panics on a geometry the recency word cannot index (Ways > 128).
// Its arrays are made at the first fill: until then find scans zero ways,
// so every lookup misses as on an empty cache.
func NewCache(name string, g CacheGeom, policy ReplacementPolicy) *Cache {
	sets := g.Sets()
	if g.Ways > maxWays {
		panic(fmt.Sprintf("hw: cache %s: %d ways, the model holds at most %d", name, g.Ways, maxWays))
	}
	c := &Cache{
		Name:   name,
		geom:   g,
		sets:   uint64(sets),
		policy: policy,
		tick:   1 << (idxShift + bits.Len(uint(g.Ways-1))),
	}
	c.Flush()
	return c
}

// alloc makes the arrays at the first fill. Nothing changes a cache before
// it, so the stamp clock and victim draw are those Flush sets.
func (c *Cache) alloc() {
	c.ways = c.geom.Ways
	c.tags = make([]uint64, int(c.sets)*c.ways)
	c.words = make([]uint64, len(c.tags))
	c.Flush()
}

func (c *Cache) setOf(lineAddr uint64) int {
	return int(lineAddr%c.sets) * c.ways
}

// find is the one tag scan: the index of the way holding line, or -1.
func (c *Cache) find(addr Addr) int {
	line := uint64(addr >> LineShift)
	base := c.setOf(line)
	for i, tag := range c.tags[base : base+c.ways] {
		if tag == line {
			return base + i
		}
	}
	return -1
}

// flagOf is the dirty bit of a write.
func flagOf(write bool) uint64 {
	if write {
		return dirtyBit
	}
	return 0
}

// touch stamps way i most recently used and ORs flags (dirty, holder)
// into its word.
func (c *Cache) touch(i int, flags uint64) {
	c.clock += c.tick
	if int64(c.clock) < 0 {
		panic("hw: cache " + c.Name + ": use stamps exhausted")
	}
	c.words[i] = c.words[i]&(c.tick-1) | c.clock | flags
}

// Access looks up the line containing addr, updating recency. If write is
// true and the line is present it is marked dirty. It returns whether the
// access hit.
func (c *Cache) Access(addr Addr, write bool) bool {
	return c.access(addr, flagOf(write))
}

// access is Access with the bits to OR into a hit way's word spelled out:
// the L3 passes the accessing core's holder bit.
func (c *Cache) access(addr Addr, flags uint64) bool {
	if i := c.find(addr); i >= 0 {
		c.touch(i, flags)
		return true
	}
	return false
}

// Contains reports whether the line containing addr is present, without
// updating recency. It is intended for tests and assertions.
func (c *Cache) Contains(addr Addr) bool { return c.find(addr) >= 0 }

// Insert fills the line containing addr, evicting a victim if the set is
// full. It returns the victim's address and dirtiness when a valid line
// was displaced. Inserting a line that is already present refreshes its
// recency (and dirtiness if dirty is true) without eviction.
func (c *Cache) Insert(addr Addr, dirty bool) (victim Addr, victimDirty, evicted bool) {
	if i := c.find(addr); i >= 0 {
		c.touch(i, flagOf(dirty))
		return 0, false, false
	}
	victim, old := c.fill(addr, flagOf(dirty))
	return victim, old&dirtyBit != 0, old >= c.tick
}

// fill places the line containing addr, which the caller knows to be
// absent, in its set's victim way with flags as its dirty and holder bits. It returns the
// displaced line's address and recency word; the word is below c.tick
// (no stamp, no dirty or holder bit) when the way was empty.
func (c *Cache) fill(addr Addr, flags uint64) (victim Addr, old uint64) {
	if c.tags == nil {
		c.alloc()
	}
	line := uint64(addr >> LineShift)
	base := c.setOf(line)
	set := c.words[base : base+c.ways]
	// The minimum, in four strided lanes when the ways allow (16 ways chain
	// 5 selects, not 15). No two words are equal: each holds its way index.
	if len(set)%4 == 0 {
		m0, m1, m2, m3 := set[0], set[1], set[2], set[3]
		for s := set[4:]; len(s) >= 4; s = s[4:] {
			m0, m1 = minWord(m0, s[0]), minWord(m1, s[1])
			m2, m3 = minWord(m2, s[2]), minWord(m3, s[3])
		}
		old = minWord(minWord(m0, m1), minWord(m2, m3))
	} else {
		old = set[0]
		for _, x := range set[1:] {
			old = minWord(old, x)
		}
	}
	if c.policy == ReplaceRandom && old >= c.tick {
		// No empty way: xorshift64 draws the victim, deterministic and
		// independent of workload content.
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		old = set[c.rng%uint64(c.ways)]
	}
	i := base + c.ways - 1 - int(old&(c.tick-1)>>idxShift)
	if old >= c.tick {
		victim = Addr(c.tags[i] << LineShift)
	}
	c.tags[i] = line
	c.words[i] = old & (c.tick - 1) &^ (1<<idxShift - 1)
	c.touch(i, flags)
	return victim, old
}

// minWord is min(old, x) without a branch: d's sign is set exactly when
// x < old (words stay below 2^63), and the compiler turns both min() and
// an if into a jump that mispredicts in the victim scan.
func minWord(old, x uint64) uint64 {
	d := x - old
	return old + d&uint64(int64(d)>>63)
}

// Invalidate removes the line containing addr if present, returning
// whether it was present and whether it was dirty.
func (c *Cache) Invalidate(addr Addr) (present, dirty bool) {
	i := c.find(addr)
	if i < 0 {
		return false, false
	}
	dirty = c.words[i]&dirtyBit != 0
	c.tags[i] = invalidTag
	c.words[i] &= (c.tick - 1) &^ (1<<idxShift - 1)
	return true, dirty
}

// MarkDirty marks the line containing addr dirty if present, returning
// whether it was present. It models a write-back arriving from an inner
// cache level.
func (c *Cache) MarkDirty(addr Addr) bool {
	i := c.find(addr)
	if i >= 0 {
		c.words[i] |= dirtyBit
	}
	return i >= 0
}

// ValidLines returns the number of currently valid lines, for tests and
// occupancy diagnostics.
func (c *Cache) ValidLines() int {
	n := 0
	for _, tag := range c.tags {
		if tag != invalidTag {
			n++
		}
	}
	return n
}

// Flush returns the cache to its constructed state: no valid line, and the
// use-stamp clock and random-victim state rewound. It keeps its arrays.
func (c *Cache) Flush() {
	for base := 0; base < len(c.tags); base += c.ways {
		for way := 0; way < c.ways; way++ {
			c.tags[base+way] = invalidTag
			c.words[base+way] = uint64(c.ways-1-way) << idxShift
		}
	}
	c.clock, c.rng = 0, 0x9e3779b97f4a7c15
}
