package hw

import (
	"reflect"
	"testing"
)

// smallConfig returns a scaled-down platform for unit tests: same
// structure as the Westmere model, tiny caches so eviction behaviour is
// easy to trigger.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.L1D = CacheGeom{SizeBytes: 1 << 10, Ways: 2}
	cfg.L2 = CacheGeom{SizeBytes: 4 << 10, Ways: 2}
	cfg.L3 = CacheGeom{SizeBytes: 16 << 10, Ways: 4}
	return cfg
}

func TestNewPlatformTopology(t *testing.T) {
	p := NewPlatform(DefaultConfig())
	if len(p.Sockets) != 2 || len(p.Cores) != 12 {
		t.Fatalf("topology = %d sockets / %d cores, want 2/12", len(p.Sockets), len(p.Cores))
	}
	if p.Cores[7].Socket != p.Sockets[1] {
		t.Fatal("core 7 must live on socket 1")
	}
	if p.Sockets[0].L3 == p.Sockets[1].L3 {
		t.Fatal("sockets must not share an L3")
	}
	if p.Cores[0].L1 == p.Cores[1].L1 {
		t.Fatal("cores must not share an L1")
	}
}

func TestAccessLatencyLevels(t *testing.T) {
	cfg := smallConfig()
	p := NewPlatform(cfg)
	core := p.Cores[0]
	addr := DomainBase(0) + 0x40

	// Cold: full path to local DRAM.
	lat := core.Access(0, addr, false, FuncOther)
	wantCold := cfg.L1Latency + cfg.L2Latency + cfg.L3Latency + cfg.DRAMLatency
	if lat != wantCold {
		t.Fatalf("cold access latency = %d, want %d", lat, wantCold)
	}
	// Warm: L1 hit.
	if lat := core.Access(100, addr, false, FuncOther); lat != cfg.L1Latency {
		t.Fatalf("L1 hit latency = %d, want %d", lat, cfg.L1Latency)
	}
	c := core.Counters
	if c.L3Misses != 1 || c.L3Refs != 1 || c.L1Hits != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestAccessRemoteDomainUsesQPI(t *testing.T) {
	cfg := smallConfig()
	p := NewPlatform(cfg)
	core := p.Cores[0] // socket 0
	remote := DomainBase(1) + 0x40

	lat := core.Access(0, remote, false, FuncOther)
	wantLocal := cfg.L1Latency + cfg.L2Latency + cfg.L3Latency + cfg.DRAMLatency
	want := wantLocal + 2*cfg.QPILatency
	if lat != want {
		t.Fatalf("remote access latency = %d, want %d", lat, want)
	}
	if core.Counters.RemoteRefs != 1 {
		t.Fatalf("RemoteRefs = %d, want 1", core.Counters.RemoteRefs)
	}
	if n := served(p.Sockets[1].Mem); n != 1 {
		t.Fatalf("remote controller requests = %d, want 1", n)
	}
	if n := served(p.Sockets[0].Mem); n != 0 {
		t.Fatalf("local controller requests = %d, want 0", n)
	}
}

func TestAccessL2HitAfterL1Eviction(t *testing.T) {
	cfg := smallConfig()
	p := NewPlatform(cfg)
	core := p.Cores[0]

	// Touch enough distinct lines to overflow L1 (1 KB = 16 lines) but
	// stay within L2 (4 KB = 64 lines).
	n := 32
	for i := 0; i < n; i++ {
		core.Access(uint64(i), Addr(i*LineSize), false, FuncOther)
	}
	// Second pass: everything should hit L2 (or L1 for the tail).
	before := core.Counters
	for i := 0; i < n; i++ {
		core.Access(uint64(n+i), Addr(i*LineSize), false, FuncOther)
	}
	d := core.Counters.Sub(before)
	if d.L3Refs != 0 {
		t.Fatalf("second pass reached L3 %d times; working set fits in L2", d.L3Refs)
	}
	if d.L2Hits == 0 {
		t.Fatal("second pass produced no L2 hits; expected L1 evictions to land in L2")
	}
}

func TestInclusiveL3BackInvalidation(t *testing.T) {
	cfg := smallConfig()
	cfg.InclusiveL3 = true
	p := NewPlatform(cfg)
	victim := p.Cores[0]
	aggressor := p.Cores[1]

	hot := DomainBase(0) + 0x40
	victim.Access(0, hot, false, FuncOther)
	if !victim.L1.Contains(hot) {
		t.Fatal("hot line must be in victim's L1 after access")
	}

	// Aggressor sweeps far more lines than the L3 holds, evicting hot.
	lines := cfg.L3.SizeBytes / LineSize * 4
	for i := 1; i <= lines; i++ {
		aggressor.Access(uint64(i), hot+Addr(i*LineSize), false, FuncOther)
	}
	if p.Sockets[0].L3.Contains(hot) {
		t.Fatal("sweep should have evicted the hot line from L3")
	}
	if victim.L1.Contains(hot) || victim.L2.Contains(hot) {
		t.Fatal("inclusive L3 eviction must back-invalidate private copies")
	}
}

func TestNonInclusiveL3KeepsPrivateCopies(t *testing.T) {
	cfg := smallConfig()
	cfg.InclusiveL3 = false
	p := NewPlatform(cfg)
	victim := p.Cores[0]
	aggressor := p.Cores[1]

	hot := DomainBase(0) + 0x40
	victim.Access(0, hot, false, FuncOther)
	lines := cfg.L3.SizeBytes / LineSize * 4
	for i := 1; i <= lines; i++ {
		aggressor.Access(uint64(i), hot+Addr(i*LineSize), false, FuncOther)
	}
	if !victim.L1.Contains(hot) {
		t.Fatal("non-inclusive config must leave the private copy intact")
	}
}

func TestDMAWriteAllocatesIntoL3AndInvalidatesPrivate(t *testing.T) {
	cfg := smallConfig()
	p := NewPlatform(cfg)
	core := p.Cores[0]
	addr := DomainBase(0) + 0x40

	core.Access(0, addr, false, FuncOther) // line in all levels
	core.DMAWrite(10, addr)
	if core.L1.Contains(addr) || core.L2.Contains(addr) {
		t.Fatal("DMA write must invalidate private copies")
	}
	if !p.Sockets[0].L3.Contains(addr) {
		t.Fatal("DMA write must allocate into L3 (DCA)")
	}
	// Next access must be an L3 hit, not a DRAM access.
	before := core.Counters
	core.Access(20, addr, false, FuncOther)
	d := core.Counters.Sub(before)
	if d.L3Hits != 1 || d.L3Misses != 0 {
		t.Fatalf("post-DMA access: %d hits / %d misses, want 1/0", d.L3Hits, d.L3Misses)
	}
}

func TestMemoryControllerQueueingUnderLoad(t *testing.T) {
	cfg := smallConfig()
	p := NewPlatform(cfg)
	core := p.Cores[0]

	// Back-to-back misses at the same instant queue behind each other.
	var total uint64
	for i := 0; i < 8; i++ {
		total += core.Access(0, Addr(i)*LineSize*1024+0x40, false, FuncOther)
	}
	if core.Counters.MemQueueCycles == 0 {
		t.Fatal("simultaneous misses must accumulate memory-controller queueing")
	}
	_ = total
}

func TestWritebackOnDirtyL3Eviction(t *testing.T) {
	cfg := smallConfig()
	p := NewPlatform(cfg)
	core := p.Cores[0]

	dirty := DomainBase(0) + 0x40
	core.Access(0, dirty, true, FuncOther) // write miss → dirty line

	memReqsBefore := served(p.Sockets[0].Mem)
	lines := cfg.L3.SizeBytes / LineSize * 4
	for i := 1; i <= lines; i++ {
		core.Access(uint64(i), dirty+Addr(i*LineSize), false, FuncOther)
	}
	if p.Sockets[0].L3.Contains(dirty) {
		t.Fatal("dirty line should have been evicted by the sweep")
	}
	// The sweep generated its own fills; the dirty eviction must have
	// added at least one extra (write-back) controller request.
	extra := served(p.Sockets[0].Mem) - memReqsBefore
	if extra <= uint64(lines) {
		t.Fatalf("controller requests %d ≤ sweep fills %d: write-back not issued", extra, lines)
	}
}

func TestFuncAttribution(t *testing.T) {
	cfg := smallConfig()
	p := NewPlatform(cfg)
	core := p.Cores[0]
	fn := RegisterFunc("test_attr")

	core.Access(0, 0x40, false, fn)
	fc := core.Counters.Func[fn]
	if fc.L3Refs != 1 || fc.L3Misses != 1 {
		t.Fatalf("func counters = %+v, want 1 ref / 1 miss", fc)
	}
}

// TestResetMatchesNew: a platform driven through everything that leaves
// state behind — loads, stores and DMA writes on both sockets, a re-homed
// domain, bounded channel waits, an element table, random L3 victims —
// and then reset is indistinguishable from a new one. This is the proof
// that an experiment on a reset platform shares nothing with the last.
func TestResetMatchesNew(t *testing.T) {
	cfg := smallConfig()
	cfg.L3Policy = ReplaceRandom
	p := NewPlatform(cfg)
	p.SetDomainHome(2, 1)
	p.BoundChannelWaits(20)
	p.Cores[0].SetElemTable(make([]ElemCell, 2))
	l3Lines := cfg.L3.SizeBytes / LineSize
	for i := range 3 * l3Lines {
		for _, c := range p.Cores {
			base := DomainBase(i%3) + Addr(c.ID<<24)
			c.ExecOps([]Op{
				{Kind: OpLoad, Addr: base + Addr(i*LineSize)},
				{Kind: OpStore, Addr: base + Addr((i+7)*LineSize), Elem: 1},
				{Kind: OpDMAWrite, Addr: base + Addr((i+l3Lines)*LineSize)},
				{Kind: OpCompute, Cycles: 5, Instrs: 2},
			})
		}
	}
	fresh := NewPlatform(cfg)
	for i, s := range p.Sockets {
		// The L3's victim draw moved: its sets filled and evicted.
		if s.Mem.MaxWait == 0 || served(s.Mem) == 0 || s.L3.rng == fresh.Sockets[0].L3.rng {
			t.Fatalf("socket %d: the run left no state to reset", i)
		}
	}
	if served(p.Sockets[1].QPI) == 0 || p.Cores[0].elems[1].cost.L3Refs == 0 {
		t.Fatal("the run crossed no socket or attributed nothing to the element table")
	}
	// The run filled every cache, and a reset keeps the arrays a fill
	// made: the new platform gets its arrays as a first fill makes them.
	for _, c := range caches(fresh) {
		c.alloc()
	}
	p.Reset()
	if !reflect.DeepEqual(p, fresh) {
		t.Fatal("a reset platform differs from NewPlatform(cfg)")
	}
}

// caches lists p's caches: each socket's L3, then its cores' L1 and L2.
func caches(p *Platform) []*Cache {
	var cs []*Cache
	for _, s := range p.Sockets {
		cs = append(cs, s.L3)
		for _, c := range s.Cores {
			cs = append(cs, c.L1, c.L2)
		}
	}
	return cs
}

// TestCachesAllocateAtFirstFill: a cache makes its arrays at its first
// fill, so a run on core 0 alone, remote loads and DMA writes included,
// leaves every other core's L1 and L2 and socket 1's L3 without them.
// Such a cache misses every lookup without allocating, and its first
// Insert leaves it equal to an eagerly allocated cache given the same
// Insert, holding the reference model's lines. (TestHierarchyMatchesReference
// replays from new, so unallocated, caches throughout.)
func TestCachesAllocateAtFirstFill(t *testing.T) {
	p := NewPlatform(smallConfig())
	core0 := p.Cores[0]
	core0.ExecOps([]Op{
		{Kind: OpLoad, Addr: DomainBase(0) + 0x1000},
		{Kind: OpStore, Addr: DomainBase(1) + 0x2040},
		{Kind: OpDMAWrite, Addr: DomainBase(0) + 0x3000},
	})
	for _, c := range caches(p) {
		filled := c == core0.L1 || c == core0.L2 || c == p.Sockets[0].L3
		if made := c.tags != nil || c.words != nil || c.ways != 0; made != filled {
			t.Errorf("%s: arrays made %v, want %v", c.Name, made, filled)
		}
	}
	idle := []*Cache{p.Cores[1].L1, p.Cores[len(p.Cores)-1].L2, p.Sockets[1].L3}
	addr := DomainBase(0) + 0x1000
	for _, c := range idle {
		var hit, present, dirty, marked bool
		allocs := testing.AllocsPerRun(10, func() {
			hit = c.Contains(addr)
			present, dirty = c.Invalidate(addr)
			marked = c.MarkDirty(addr)
		})
		if hit || present || dirty || marked || allocs != 0 {
			t.Errorf("%s: Contains %v, Invalidate %v/%v, MarkDirty %v, %v allocations; want misses and 0",
				c.Name, hit, present, dirty, marked, allocs)
		}
	}
	for _, c := range idle {
		eager, ref := NewCache(c.Name, c.geom, c.policy), newRefCache(c.geom, c.policy)
		eager.alloc()
		got, want := [3]any{}, [3]any{}
		got[0], got[1], got[2] = c.Insert(addr, true)
		want[0], want[1], want[2] = eager.Insert(addr, true)
		ref.insert(addr, true)
		if c.tags == nil || got != want || !reflect.DeepEqual(c, eager) {
			t.Errorf("%s: first Insert returned %v and made arrays %v; an eager cache returns %v and holds the same state",
				c.Name, got, c.tags != nil, want)
		}
		sameLines(t, c, ref)
	}
}
