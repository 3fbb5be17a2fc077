package hw

import (
	"fmt"
	"math/rand"
	"testing"
)

// The reference hierarchy: the cache model as it was before the
// contiguous-tag layout — one {tag, stamp, dirty} record per way, a
// three-branch victim scan, and an inclusive L3 that probes every peer's
// private caches on each eviction. It is slow and obviously right, and
// TestHierarchyMatchesReference holds hw.Cache and Core.Access to it
// access by access.

type refLine struct {
	tag   uint64 // valid if tag != invalidTag
	stamp uint64
	dirty bool
}

type refCache struct {
	lines  []refLine
	sets   uint64
	ways   int
	policy ReplacementPolicy
	clock  uint64
	rng    uint64
}

func newRefCache(g CacheGeom, policy ReplacementPolicy) *refCache {
	c := &refCache{lines: make([]refLine, g.Sets()*g.Ways), sets: uint64(g.Sets()), ways: g.Ways, policy: policy}
	c.flush()
	return c
}

func (c *refCache) setOf(line uint64) int { return int(line%c.sets) * c.ways }

func (c *refCache) way(addr Addr) *refLine {
	line := uint64(addr >> LineShift)
	base := c.setOf(line)
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].tag == line {
			return &c.lines[i]
		}
	}
	return nil
}

func (c *refCache) access(addr Addr, write bool) bool {
	c.clock++
	if l := c.way(addr); l != nil {
		l.stamp = c.clock
		l.dirty = l.dirty || write
		return true
	}
	return false
}

func (c *refCache) contains(addr Addr) bool { return c.way(addr) != nil }

func (c *refCache) insert(addr Addr, dirty bool) (victim Addr, victimDirty, evicted bool) {
	line := uint64(addr >> LineShift)
	base := c.setOf(line)
	c.clock++

	victimIdx := base
	oldest := ^uint64(0)
	for i := base; i < base+c.ways; i++ {
		l := &c.lines[i]
		if l.tag == line {
			l.stamp = c.clock
			if dirty {
				l.dirty = true
			}
			return 0, false, false
		}
		if l.tag == invalidTag {
			// Prefer an invalid way; the last one seen wins.
			victimIdx = i
			oldest = 0
		} else if oldest != 0 && l.stamp < oldest {
			victimIdx = i
			oldest = l.stamp
		}
	}
	if oldest != 0 && c.policy == ReplaceRandom {
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		victimIdx = base + int(c.rng%uint64(c.ways))
	}
	v := &c.lines[victimIdx]
	if v.tag != invalidTag {
		victim, victimDirty, evicted = Addr(v.tag<<LineShift), v.dirty, true
	}
	*v = refLine{tag: line, stamp: c.clock, dirty: dirty}
	return victim, victimDirty, evicted
}

func (c *refCache) invalidate(addr Addr) (present, dirty bool) {
	l := c.way(addr)
	if l == nil {
		return false, false
	}
	dirty = l.dirty
	l.tag, l.dirty = invalidTag, false
	return true, dirty
}

func (c *refCache) markDirty(addr Addr) bool {
	l := c.way(addr)
	if l != nil {
		l.dirty = true
	}
	return l != nil
}

func (c *refCache) validLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].tag != invalidTag {
			n++
		}
	}
	return n
}

func (c *refCache) flush() {
	for i := range c.lines {
		c.lines[i] = refLine{tag: invalidTag}
	}
	c.clock, c.rng = 0, 0x9e3779b97f4a7c15
}

type refCore struct {
	sock   *refSocket
	l1, l2 *refCache
	cnt    Counters
	clock  uint64
}

type refSocket struct {
	cores    []*refCore
	l3       *refCache
	mem, qpi *Channel
	p        *refPlatform
}

type refPlatform struct {
	cfg     Config
	sockets []*refSocket
	cores   []*refCore
}

func newRefPlatform(cfg Config) *refPlatform {
	p := &refPlatform{cfg: cfg}
	for s := 0; s < cfg.Sockets; s++ {
		sock := &refSocket{l3: newRefCache(cfg.L3, cfg.L3Policy), p: p,
			mem: NewChannel("ref.mem", cfg.MemCtrlService), qpi: NewChannel("ref.qpi", cfg.QPIService)}
		for i := 0; i < cfg.CoresPerSocket; i++ {
			core := &refCore{sock: sock, l1: newRefCache(cfg.L1D, ReplaceLRU), l2: newRefCache(cfg.L2, ReplaceLRU)}
			sock.cores = append(sock.cores, core)
			p.cores = append(p.cores, core)
		}
		p.sockets = append(p.sockets, sock)
	}
	return p
}

func (p *refPlatform) home(addr Addr) *refSocket { return p.sockets[DomainOf(addr)%len(p.sockets)] }

// reset is Platform.Reset: empty caches, idle channels, zero clocks and
// counters.
func (p *refPlatform) reset() {
	for _, s := range p.sockets {
		s.l3.flush()
		s.mem.Reset()
		s.qpi.Reset()
		for _, c := range s.cores {
			c.l1.flush()
			c.l2.flush()
			c.cnt, c.clock = Counters{}, 0
		}
	}
}

// exec replays one op the way Core.exec does and returns its latency.
func (c *refCore) exec(op Op) uint64 {
	var lat, instrs uint64 = 0, 1
	switch op.Kind {
	case OpCompute:
		lat, instrs = uint64(op.Cycles), uint64(op.Instrs)
	case OpLoad, OpStore, OpLoadStream:
		lat = c.access(c.clock, op.Addr, op.Kind == OpStore, op.Func)
		if mlp := c.sock.p.cfg.StreamMLP; op.Kind == OpLoadStream && mlp > 1 {
			lat = (lat + mlp - 1) / mlp
		}
	case OpDMAWrite:
		for _, peer := range c.sock.cores {
			peer.l1.invalidate(op.Addr)
			peer.l2.invalidate(op.Addr)
		}
		c.insertL3(c.clock, op.Addr, true)
		return 0
	}
	c.clock += lat
	c.cnt.Cycles += lat
	c.cnt.Instructions += instrs
	c.cnt.Func[op.Func].Cycles += lat
	return lat
}

func (c *refCore) access(now uint64, addr Addr, write bool, fn FuncID) uint64 {
	cfg, cnt, sock := &c.sock.p.cfg, &c.cnt, c.sock
	lat := cfg.L1Latency
	cnt.L1Refs++
	if c.l1.access(addr, write) {
		cnt.L1Hits++
		return lat
	}
	lat += cfg.L2Latency
	cnt.L2Refs++
	if c.l2.access(addr, write) {
		cnt.L2Hits++
		c.fillL1(now, addr)
		return lat
	}
	lat += cfg.L3Latency
	cnt.L3Refs++
	cnt.Func[fn].L3Refs++
	if sock.l3.access(addr, false) {
		cnt.L3Hits++
		cnt.Func[fn].L3Hits++
	} else {
		cnt.L3Misses++
		cnt.Func[fn].L3Misses++
		home := sock.p.home(addr)
		if home != sock {
			cnt.RemoteRefs++
			qwait := sock.qpi.Occupy(now + lat)
			cnt.QPIQueueCycles += qwait
			lat += qwait + cfg.QPILatency
		}
		mwait := home.mem.Occupy(now + lat)
		cnt.MemQueueCycles += mwait
		lat += mwait + cfg.DRAMLatency
		if home != sock {
			lat += cfg.QPILatency
		}
		c.insertL3(now, addr, write)
	}
	c.insertL2(now, addr, false)
	c.fillL1(now, addr)
	if write {
		c.l1.markDirty(addr)
	}
	return lat
}

func (c *refCore) fillL1(now uint64, addr Addr) {
	victim, dirty, evicted := c.l1.insert(addr, false)
	if evicted && dirty && !c.l2.markDirty(victim) {
		c.insertL2(now, victim, true)
	}
}

func (c *refCore) insertL2(now uint64, addr Addr, dirty bool) {
	victim, vdirty, evicted := c.l2.insert(addr, dirty)
	if evicted && vdirty && !c.sock.l3.markDirty(victim) {
		c.insertL3(now, victim, true)
	}
}

func (c *refCore) insertL3(now uint64, addr Addr, dirty bool) {
	sock := c.sock
	victim, vdirty, evicted := sock.l3.insert(addr, dirty)
	if !evicted {
		return
	}
	if sock.p.cfg.InclusiveL3 {
		for _, peer := range sock.cores {
			if p, d := peer.l1.invalidate(victim); p && d {
				vdirty = true
			}
			if p, d := peer.l2.invalidate(victim); p && d {
				vdirty = true
			}
		}
	}
	if vdirty {
		sock.p.home(victim).mem.Occupy(now)
	}
}

// geomOf builds a geometry from a set count, so the table below can ask
// for the non-power-of-two set counts the paper-scale L3 (12 288) has.
func geomOf(sets, ways int) CacheGeom {
	return CacheGeom{SizeBytes: sets * ways * LineSize, Ways: ways}
}

// TestHierarchyMatchesReference replays seeded random traces on the
// platform and on the reference hierarchy and requires every latency,
// counter, channel wait histogram and resident line, with its dirty bit,
// to agree. It is the only coverage
// ReplaceRandom and InclusiveL3 = false get: neither the golden digest
// nor any figure reaches them.
func TestHierarchyMatchesReference(t *testing.T) {
	ops := 20000
	if testing.Short() {
		ops = 4000
	}
	geoms := []struct {
		name       string
		l1, l2, l3 CacheGeom
	}{
		{"direct-mapped", geomOf(8, 1), geomOf(16, 1), geomOf(48, 1)},
		{"2-way", geomOf(4, 2), geomOf(8, 2), geomOf(16, 2)},
		{"8-way-12-sets", geomOf(4, 8), geomOf(8, 8), geomOf(12, 8)},
		{"16-way-L3", geomOf(2, 8), geomOf(3, 8), geomOf(6, 16)},
		{"32-way-15-sets", geomOf(1, 32), geomOf(2, 32), geomOf(15, 32)},
	}
	seed := int64(1)
	for _, g := range geoms {
		for _, cores := range []int{3, 6, 16, 24} { // 24: more cores than holder bits
			for _, policy := range []ReplacementPolicy{ReplaceLRU, ReplaceRandom} {
				for _, inclusive := range []bool{true, false} {
					cfg := DefaultConfig()
					cfg.CoresPerSocket, cfg.L1D, cfg.L2, cfg.L3 = cores, g.l1, g.l2, g.l3
					cfg.L3Policy, cfg.InclusiveL3 = policy, inclusive
					seed++
					name := fmt.Sprintf("%s/cores=%d/policy=%d/inclusive=%v", g.name, cores, policy, inclusive)
					t.Run(name, func(t *testing.T) { replayAgainstReference(t, cfg, seed, ops) })
				}
			}
		}
	}
	// Cache-level traces reach what the hierarchy never does: Insert
	// refreshing a present line (dirtiness is OR-ed, not replaced) and
	// holes punched into a ReplaceRandom cache, where the way an insert
	// lands in decides later victims.
	for _, ways := range []int{1, 2, 8, 16, 32, 128} { // 128: the widest the recency word indexes
		for _, sets := range []int{1, 4, 15} {
			for _, policy := range []ReplacementPolicy{ReplaceLRU, ReplaceRandom} {
				seed++
				t.Run(fmt.Sprintf("cache/%dx%d/policy=%d", sets, ways, policy), func(t *testing.T) {
					cacheAgainstReference(t, geomOf(sets, ways), policy, seed, ops)
				})
			}
		}
	}
}

func cacheAgainstReference(t *testing.T, g CacheGeom, policy ReplacementPolicy, seed int64, ops int) {
	rnd := rand.New(rand.NewSource(seed))
	c, ref := NewCache("dut", g, policy), newRefCache(g, policy)
	pool := 3 * g.Sets() * g.Ways
	for i := 0; i < ops; i++ {
		addr := Addr(rnd.Intn(pool))*LineSize + Addr(rnd.Intn(LineSize))
		flag := rnd.Intn(2) == 0
		var got, want [3]any
		switch k := rnd.Intn(10); {
		case k < 3:
			got[0], want[0] = c.Access(addr, flag), ref.access(addr, flag)
		case k < 7:
			got[0], got[1], got[2] = c.Insert(addr, flag)
			want[0], want[1], want[2] = ref.insert(addr, flag)
		case k < 8:
			got[0], got[1] = c.Invalidate(addr)
			want[0], want[1] = ref.invalidate(addr)
		case k < 9:
			got[0], want[0] = c.MarkDirty(addr), ref.markDirty(addr)
		default:
			got[0], want[0] = c.Contains(addr), ref.contains(addr)
		}
		if got != want {
			t.Fatalf("op %d on %#x: got %v, reference %v", i, addr, got, want)
		}
	}
	sameLines(t, c, ref)
}

// sameLines requires c to hold exactly the reference's lines, each with the
// reference's dirty bit: equal counts and every reference line resident
// with that bit.
func sameLines(t *testing.T, c *Cache, r *refCache) {
	t.Helper()
	if c.ValidLines() != r.validLines() {
		t.Fatalf("%s: %d valid lines, reference %d", c.Name, c.ValidLines(), r.validLines())
	}
	for _, l := range r.lines {
		if l.tag == invalidTag {
			continue
		}
		a := Addr(l.tag << LineShift)
		if i := c.find(a); i < 0 || (c.words[i]&dirtyBit != 0) != l.dirty {
			t.Fatalf("%s: line %#x resident %v, reference dirty %v", c.Name, a, i >= 0, l.dirty)
		}
	}
}

func replayAgainstReference(t *testing.T, cfg Config, seed int64, ops int) {
	rnd := rand.New(rand.NewSource(seed))
	p, ref := NewPlatform(cfg), newRefPlatform(cfg)
	l1, l2, l3 := cfg.L1D.SizeBytes/LineSize, cfg.L2.SizeBytes/LineSize, cfg.L3.SizeBytes/LineSize
	fnA, fnB := RegisterFunc("ref_a"), RegisterFunc("ref_b")

	// The address pool, in both NUMA domains: a few hot lines every core
	// shares, a private region per core that overflows its L2, and a
	// stream that overflows the L3.
	stream := 0
	pick := func(core int) Addr {
		base := DomainBase(rnd.Intn(2))
		switch k := rnd.Intn(10); {
		case k < 3:
			return base + Addr(rnd.Intn(2*l1))*LineSize
		case k < 8:
			return base + Addr(1<<20+core*4*l2+rnd.Intn(2*l2))*LineSize
		default:
			stream = (stream + 1) % (4 * l3)
			return base + Addr(1<<30+stream)*LineSize
		}
	}
	for i := 0; i < ops; i++ {
		if rnd.Intn(ops/3) == 0 {
			p.Reset()
			ref.reset()
			continue
		}
		id := rnd.Intn(len(p.Cores))
		op := Op{Addr: pick(id) + Addr(rnd.Intn(LineSize)), Func: fnA}
		if rnd.Intn(2) == 0 {
			op.Func = fnB
		}
		switch k := rnd.Intn(20); {
		case k < 10:
			op.Kind = OpLoad
		case k < 15:
			op.Kind = OpStore
		case k < 17:
			op.Kind = OpLoadStream
		case k < 19:
			op.Kind = OpDMAWrite
		default:
			op.Kind, op.Cycles, op.Instrs = OpCompute, uint32(rnd.Intn(200)), 3
		}
		core, rcore := p.Cores[id], ref.cores[id]
		before := core.clock
		core.exec([]Op{op}, false)
		if got, want := core.clock-before, rcore.exec(op); got != want {
			t.Fatalf("op %d (%+v on core %d): latency %d, reference %d", i, op, id, got, want)
		}
	}

	sameChannel := func(ch, r *Channel) {
		t.Helper()
		if ch.waitHist != r.waitHist {
			t.Fatalf("%s: wait histogram %v, reference %v", ch.Name, ch.waitHist, r.waitHist)
		}
	}
	for i, s := range p.Sockets {
		sameLines(t, s.L3, ref.sockets[i].l3)
		sameChannel(s.Mem, ref.sockets[i].mem)
		sameChannel(s.QPI, ref.sockets[i].qpi)
	}
	for i, c := range p.Cores {
		sameLines(t, c.L1, ref.cores[i].l1)
		sameLines(t, c.L2, ref.cores[i].l2)
		if c.Counters != ref.cores[i].cnt {
			t.Fatalf("core %d: counters %+v, reference %+v", i, c.Counters, ref.cores[i].cnt)
		}
	}
}
