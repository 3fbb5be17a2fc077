package hw

import (
	"testing"
	"testing/quick"
)

func newTinyCache(t *testing.T, size, ways int, p ReplacementPolicy) *Cache {
	t.Helper()
	return NewCache("test", CacheGeom{SizeBytes: size, Ways: ways}, p)
}

func TestCacheGeomSets(t *testing.T) {
	g := CacheGeom{SizeBytes: 12 << 20, Ways: 16}
	if got, want := g.Sets(), (12<<20)/64/16; got != want {
		t.Fatalf("Sets() = %d, want %d", got, want)
	}
}

func TestCacheGeomInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid geometry")
		}
	}()
	CacheGeom{SizeBytes: 100, Ways: 3}.Sets()
}

func TestCacheMissThenHit(t *testing.T) {
	c := newTinyCache(t, 1024, 2, ReplaceLRU)
	addr := Addr(0x1000)
	if c.Access(addr, false) {
		t.Fatal("cold access should miss")
	}
	c.Insert(addr, false)
	if !c.Access(addr, false) {
		t.Fatal("access after insert should hit")
	}
}

func TestCacheSameLineDifferentBytes(t *testing.T) {
	c := newTinyCache(t, 1024, 2, ReplaceLRU)
	c.Insert(0x40, false)
	if !c.Access(0x7f, false) {
		t.Fatal("byte 0x7f shares the line of 0x40 and should hit")
	}
	if c.Access(0x80, false) {
		t.Fatal("byte 0x80 is the next line and should miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache with 2 sets: lines 0x00,0x80,0x100 map to set 0
	// (stride = sets*LineSize = 128).
	c := newTinyCache(t, 256, 2, ReplaceLRU)
	a, b, d := Addr(0x000), Addr(0x080), Addr(0x100)
	c.Insert(a, false)
	c.Insert(b, false)
	c.Access(a, false) // a is now more recently used than b
	victim, _, evicted := c.Insert(d, false)
	if !evicted {
		t.Fatal("inserting into a full set must evict")
	}
	if victim != b {
		t.Fatalf("victim = %#x, want LRU line %#x", victim, b)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Fatalf("contents after eviction wrong: a=%v b=%v d=%v",
			c.Contains(a), c.Contains(b), c.Contains(d))
	}
}

func TestCacheInsertExistingRefreshesLRU(t *testing.T) {
	c := newTinyCache(t, 256, 2, ReplaceLRU)
	a, b, d := Addr(0x000), Addr(0x080), Addr(0x100)
	c.Insert(a, false)
	c.Insert(b, false)
	// Re-inserting a must not evict and must refresh its recency.
	if _, _, evicted := c.Insert(a, false); evicted {
		t.Fatal("re-inserting a resident line must not evict")
	}
	victim, _, _ := c.Insert(d, false)
	if victim != b {
		t.Fatalf("victim = %#x, want %#x (a was refreshed)", victim, b)
	}
}

func TestCacheDirtyEvictionReportsWriteback(t *testing.T) {
	c := newTinyCache(t, 256, 1, ReplaceLRU) // direct-mapped, 4 sets
	a := Addr(0x000)
	conflict := Addr(0x100) // same set as a (stride 256)
	c.Insert(a, true)
	victim, dirty, evicted := c.Insert(conflict, false)
	if !evicted || victim != a || !dirty {
		t.Fatalf("got victim=%#x dirty=%v evicted=%v, want victim=%#x dirty evicted", victim, dirty, evicted, a)
	}
}

func TestCacheWriteAccessMarksDirty(t *testing.T) {
	c := newTinyCache(t, 256, 1, ReplaceLRU)
	a := Addr(0x000)
	c.Insert(a, false)
	c.Access(a, true) // write hit marks dirty
	_, dirty, _ := c.Insert(0x100, false)
	if !dirty {
		t.Fatal("write-hit line must be evicted dirty")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newTinyCache(t, 256, 2, ReplaceLRU)
	a := Addr(0x40)
	c.Insert(a, true)
	present, dirty := c.Invalidate(a)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Contains(a) {
		t.Fatal("line still present after Invalidate")
	}
	if present, _ := c.Invalidate(a); present {
		t.Fatal("second Invalidate must report absent")
	}
}

func TestCacheMarkDirty(t *testing.T) {
	c := newTinyCache(t, 256, 2, ReplaceLRU)
	a := Addr(0x40)
	if c.MarkDirty(a) {
		t.Fatal("MarkDirty on absent line must return false")
	}
	c.Insert(a, false)
	if !c.MarkDirty(a) {
		t.Fatal("MarkDirty on resident line must return true")
	}
	if _, dirty := c.Invalidate(a); !dirty {
		t.Fatal("line must be dirty after MarkDirty")
	}
}

func TestCacheFlush(t *testing.T) {
	c := newTinyCache(t, 1024, 4, ReplaceLRU)
	for i := 0; i < 64; i++ {
		c.Insert(Addr(i*LineSize), i%2 == 0)
	}
	c.Flush()
	if c.ValidLines() != 0 {
		t.Fatalf("ValidLines after Flush = %d, want 0", c.ValidLines())
	}
}

// TestFlushedRandomCacheMatchesNew: a ReplaceRandom L3 that was used and
// then flushed picks, on one address stream, the victims a new cache
// picks — Flush rewinds the victim draw and the stamp clock.
func TestFlushedRandomCacheMatchesNew(t *testing.T) {
	g := CacheGeom{SizeBytes: 16 << 10, Ways: 4}
	stream := func(i int) Addr { return Addr(i*i%4099) * LineSize }
	used := NewCache("used", g, ReplaceRandom)
	for i := range 5000 {
		used.Insert(stream(i+1), i%3 == 0)
	}
	used.Flush()
	fresh := NewCache("fresh", g, ReplaceRandom)
	evictions := 0
	for i := range 5000 {
		v1, d1, e1 := used.Insert(stream(i), i%2 == 0)
		v2, d2, e2 := fresh.Insert(stream(i), i%2 == 0)
		if v1 != v2 || d1 != d2 || e1 != e2 {
			t.Fatalf("insert %d: flushed cache evicted (%#x, dirty %v, %v), new cache (%#x, dirty %v, %v)", i, v1, d1, e1, v2, d2, e2)
		}
		if e1 {
			evictions++
		}
	}
	if evictions == 0 {
		t.Fatal("the stream never filled a set")
	}
}

func TestCacheCapacityNeverExceeded(t *testing.T) {
	c := newTinyCache(t, 2048, 4, ReplaceLRU)
	total := int(c.sets) * c.geom.Ways
	for i := 0; i < 10*total; i++ {
		c.Insert(Addr(i)*LineSize*7, false)
	}
	if got := c.ValidLines(); got > total {
		t.Fatalf("ValidLines = %d exceeds capacity %d", got, total)
	}
}

func TestCacheRandomPolicyStaysWithinSet(t *testing.T) {
	c := newTinyCache(t, 256, 2, ReplaceRandom)
	// Fill set 0, then insert more set-0 lines; the survivor set must
	// always contain the newly inserted line.
	c.Insert(0x000, false)
	c.Insert(0x080, false)
	for i := 2; i < 50; i++ {
		a := Addr(i * 0x80)
		c.Insert(a, false)
		if !c.Contains(a) {
			t.Fatalf("inserted line %#x not present", a)
		}
	}
}

// Property: after any access sequence that fills each miss, every valid
// line came from a miss, and the number of valid lines never exceeds
// capacity.
func TestCacheOccupancyInvariantQuick(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c := NewCache("q", CacheGeom{SizeBytes: 1024, Ways: 2}, ReplaceLRU)
		misses := 0
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			addr := Addr(a)
			if !c.Access(addr, w) {
				misses++
				c.Insert(addr, w)
			}
		}
		capacity := int(c.sets) * c.geom.Ways
		return c.ValidLines() <= min(misses, capacity)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: immediately re-accessing the line just inserted always hits.
func TestCacheInsertThenAccessHitsQuick(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := NewCache("q", CacheGeom{SizeBytes: 4096, Ways: 4}, ReplaceLRU)
		for _, a := range addrs {
			addr := Addr(a)
			if !c.Access(addr, false) {
				c.Insert(addr, false)
			}
			if !c.Access(addr, false) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: an MRU-ordered working set no larger than one set's ways never
// misses after the first pass (LRU guarantees retention).
func TestCacheLRURetentionQuick(t *testing.T) {
	f := func(seed uint8) bool {
		c := NewCache("q", CacheGeom{SizeBytes: 2048, Ways: 4}, ReplaceLRU)
		// 4 lines, all in the same set: stride = sets * LineSize.
		stride := Addr(c.sets * LineSize)
		base := Addr(seed) * stride * 16
		lines := []Addr{base, base + stride, base + 2*stride, base + 3*stride}
		for pass := 0; pass < 3; pass++ {
			for _, a := range lines {
				hit := c.Access(a, false)
				if !hit {
					if pass > 0 {
						return false // working set fits; must never miss again
					}
					c.Insert(a, false)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestNewCacheWaysLimit: the recency word indexes at most 128 ways; a
// wider geometry must panic at construction, not simulate wrongly.
func TestNewCacheWaysLimit(t *testing.T) {
	NewCache("widest", CacheGeom{SizeBytes: 128 * LineSize, Ways: 128}, ReplaceLRU)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a 129-way cache")
		}
	}()
	NewCache("too wide", CacheGeom{SizeBytes: 129 * LineSize, Ways: 129}, ReplaceLRU)
}
