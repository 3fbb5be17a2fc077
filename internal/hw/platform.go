package hw

import (
	"fmt"
	"math/bits"
	"sync"
)

// Core is one processing core: private L1D and L2, a pointer back to its
// socket for the shared L3 and memory path, and its performance counters.
type Core struct {
	ID     int // global core id, 0-based
	Socket *Socket

	L1 *Cache
	L2 *Cache

	Counters Counters

	clock  uint64 // local virtual time in cycles
	holder uint64 // this core's holder bit in an L3 recency word

	// elems is the per-element attribution table installed by
	// SetElemTable (nil = attribution off); curElem is the slot of the op
	// currently executing, so Access can attribute L3 traffic without a
	// wider signature. Both are touched only by the goroutine driving the core.
	elems   []ElemCell
	curElem uint16
}

// Clock returns the core's local virtual time in cycles.
func (c *Core) Clock() uint64 { return c.clock }

// Socket is one processor package: a set of cores sharing an inclusive L3
// and an integrated memory controller, plus an outgoing QPI link.
type Socket struct {
	ID    int
	Cores []*Core
	L3    *Cache
	Mem   *Channel // integrated memory controller
	QPI   *Channel // outgoing interconnect link

	// mu serialises access to the socket's cache state (the shared L3
	// and, because DMA delivery and inclusive-L3 back-invalidation cross
	// core boundaries, every core-private cache on the socket) when flows
	// execute concurrently (see Core.ExecOps): a core holds it once per
	// run of consecutive memory ops and releases it at every compute op.
	// The single-threaded engine path never takes it.
	mu sync.Mutex

	platform *Platform
}

// Platform is the simulated machine.
type Platform struct {
	Cfg     Config
	Sockets []*Socket
	Cores   []*Core // flattened, indexed by global core id

	// domainHome overrides the default domain→socket mapping for
	// individual NUMA domains (see SetDomainHome). nil until the first
	// override is installed.
	domainHome map[int]int
}

// NewPlatform builds a machine from cfg.
func NewPlatform(cfg Config) *Platform {
	if cfg.Sockets < 1 || cfg.CoresPerSocket < 1 {
		panic(fmt.Sprintf("hw: invalid topology %d sockets x %d cores", cfg.Sockets, cfg.CoresPerSocket))
	}
	p := &Platform{Cfg: cfg}
	for s := 0; s < cfg.Sockets; s++ {
		sock := &Socket{
			ID:       s,
			L3:       NewCache(fmt.Sprintf("socket%d.L3", s), cfg.L3, cfg.L3Policy),
			Mem:      NewChannel(fmt.Sprintf("socket%d.mem", s), cfg.MemCtrlService),
			QPI:      NewChannel(fmt.Sprintf("socket%d.qpi", s), cfg.QPIService),
			platform: p,
		}
		for i := 0; i < cfg.CoresPerSocket; i++ {
			id := s*cfg.CoresPerSocket + i
			core := &Core{
				ID:     id,
				Socket: sock,
				L1:     NewCache(fmt.Sprintf("core%d.L1D", id), cfg.L1D, ReplaceLRU),
				L2:     NewCache(fmt.Sprintf("core%d.L2", id), cfg.L2, ReplaceLRU),
				holder: 1 << (holderShift + i%holderBits),
			}
			sock.Cores = append(sock.Cores, core)
			p.Cores = append(p.Cores, core)
		}
		p.Sockets = append(p.Sockets, sock)
	}
	return p
}

// HomeSocket returns the socket whose memory controller owns addr. By
// default domain d homes to socket d % Sockets, so domain ids beyond the
// socket count give callers private domains with a well-defined home —
// the runtime allocates each flow's state from its own private domain so
// the state can be re-homed independently (see SetDomainHome).
func (p *Platform) HomeSocket(addr Addr) *Socket {
	return p.Sockets[p.DomainHome(DomainOf(addr))]
}

// DomainHome returns the socket id addresses of NUMA domain d currently
// home to.
func (p *Platform) DomainHome(d int) int {
	if s, ok := p.domainHome[d]; ok {
		return s
	}
	return d % len(p.Sockets)
}

// SetDomainHome re-homes NUMA domain d to the given socket's memory
// controller: every subsequent miss on a domain-d address is served
// there. It models the end state of a state migration — after the copy,
// the structure's lines live in the destination socket's memory — without
// relocating simulated addresses, so Go-side structures keep their
// recorded pointers. Callers charge the copy itself (remote reads of
// every line, then local writes) before installing the override.
//
// The mapping is read on every cache miss without locking: call this
// only while no core is executing (the runtime does so at quantum
// barriers, where channel synchronisation orders the write before every
// worker's next access).
func (p *Platform) SetDomainHome(d, socket int) {
	if socket < 0 || socket >= len(p.Sockets) {
		panic(fmt.Sprintf("hw: domain %d re-homed to nonexistent socket %d", d, socket))
	}
	if p.domainHome == nil {
		p.domainHome = make(map[int]int)
	}
	p.domainHome[d] = socket
}

// Access performs one memory reference by this core at virtual time now
// and returns its latency in cycles. The lookup walks L1 → L2 → L3 →
// memory; fills propagate inward, dirty victims write back outward, and —
// when the L3 is inclusive — an L3 eviction back-invalidates private
// copies across the socket, which is the mechanism by which one flow's
// cache pressure destroys another flow's L1/L2 locality.
func (c *Core) Access(now uint64, addr Addr, write bool, fn FuncID) uint64 {
	cfg := &c.Socket.platform.Cfg
	cnt := &c.Counters

	lat := cfg.L1Latency
	cnt.L1Refs++
	if c.L1.Access(addr, write) {
		cnt.L1Hits++
		return lat
	}

	lat += cfg.L2Latency
	cnt.L2Refs++
	if c.L2.Access(addr, write) {
		cnt.L2Hits++
		c.fillL1(now, addr)
		return lat
	}

	// Shared L3.
	sock := c.Socket
	lat += cfg.L3Latency
	cnt.L3Refs++
	cnt.Func[fn].L3Refs++
	if c.elems != nil {
		c.elems[c.curElem].cost.L3Refs++
	}
	if sock.L3.access(addr, c.holder) {
		cnt.L3Hits++
		cnt.Func[fn].L3Hits++
		if c.elems != nil {
			c.elems[c.curElem].cost.L3Hits++
		}
	} else {
		cnt.L3Misses++
		cnt.Func[fn].L3Misses++
		if c.elems != nil {
			c.elems[c.curElem].cost.L3Misses++
		}
		// Memory access, possibly across the interconnect.
		home := sock.platform.HomeSocket(addr)
		if home != sock {
			cnt.RemoteRefs++
			qwait := sock.QPI.Occupy(now + lat)
			cnt.QPIQueueCycles += qwait
			lat += qwait + cfg.QPILatency
		}
		mwait := home.Mem.Occupy(now + lat)
		cnt.MemQueueCycles += mwait
		lat += mwait + cfg.DRAMLatency
		if home != sock {
			// Response hop: the return traversal adds latency but the request
			// already reserved the link slot.
			lat += cfg.QPILatency
		}
		c.fillL3(now, addr, flagOf(write))
	}
	c.fillL2(now, addr, 0)
	c.fillL1(now, addr)
	if write {
		// The private copy carries the dirtiness; after an L3 hit the L3
		// copy is marked dirty when the private copy writes back.
		c.L1.MarkDirty(addr)
	}
	return lat
}

// DMAWrite models the NIC delivering a received line at virtual time now:
// with direct cache access the line is allocated into the socket's L3 and
// any stale private copies are invalidated. The core is not charged
// cycles; the NIC, not the core, does the work.
func (c *Core) DMAWrite(now uint64, addr Addr) {
	sock := c.Socket
	i := sock.L3.find(addr)
	if !sock.platform.Cfg.InclusiveL3 {
		sock.invalidateHolders(^uint64(0), addr) // any core may hold a copy
	} else if i >= 0 { // only holders may; of a line the L3 lacks, none
		sock.invalidateHolders(sock.L3.words[i], addr)
	}
	if i >= 0 {
		sock.L3.touch(i, dirtyBit)
		return
	}
	victim, old := sock.L3.fill(addr, dirtyBit)
	c.evictedL3(now, victim, old)
}

// The fills below follow a miss at their level, so they skip the tag scan
// (Cache.fill): the line is absent, and nothing between the miss and the
// fill inserts into that cache.

func (c *Core) fillL1(now uint64, addr Addr) {
	victim, old := c.L1.fill(addr, 0)
	// Write a dirty victim back into L2; if L2 no longer holds it the
	// write-back allocates there (and may cascade).
	if old&dirtyBit != 0 && !c.L2.MarkDirty(victim) {
		c.fillL2(now, victim, dirtyBit)
	}
}

func (c *Core) fillL2(now uint64, addr Addr, flags uint64) {
	victim, old := c.L2.fill(addr, flags)
	if old&dirtyBit != 0 && !c.Socket.L3.MarkDirty(victim) {
		c.fillL3(now, victim, dirtyBit)
	}
}

func (c *Core) fillL3(now uint64, addr Addr, flags uint64) {
	victim, old := c.Socket.L3.fill(addr, flags|c.holder)
	c.evictedL3(now, victim, old)
}

// evictedL3 completes an L3 insertion that displaced victim, whose
// recency word was old (an empty way's word has no bit looked at here).
func (c *Core) evictedL3(now uint64, victim Addr, old uint64) {
	sock := c.Socket
	dirty := old&dirtyBit != 0
	if sock.platform.Cfg.InclusiveL3 {
		// Inclusive L3: displaced lines may not survive in private caches.
		dirty = sock.invalidateHolders(old, victim) || dirty
	}
	if dirty {
		// Posted write-back: consumes controller bandwidth, adds no
		// latency to the access that triggered the eviction.
		sock.platform.HomeSocket(victim).Mem.Occupy(now)
	}
}

// invalidateHolders drops addr's line from L1 and L2 of every core whose
// holder bit is set in w, an L3 recency word, and reports whether a copy
// was dirty. A core sets its bit by filling or hitting the line in L3, its
// only ways to a private copy (core k shares bit k mod holderBits).
func (s *Socket) invalidateHolders(w uint64, addr Addr) (dirty bool) {
	for h := w >> holderShift & (1<<holderBits - 1); h != 0; h &= h - 1 {
		for k := bits.TrailingZeros64(h); k < len(s.Cores); k += holderBits {
			_, d1 := s.Cores[k].L1.Invalidate(addr)
			_, d2 := s.Cores[k].L2.Invalidate(addr)
			dirty = dirty || d1 || d2
		}
	}
	return dirty
}

// Reset returns the platform to the state NewPlatform(p.Cfg) builds: every
// cache and channel as constructed, every core's counters, clock and
// element table cleared, every domain at its default home. Call it only
// while no core is executing.
func (p *Platform) Reset() {
	p.domainHome = nil
	for _, s := range p.Sockets {
		s.L3.Flush()
		s.Mem.Reset()
		s.QPI.Reset()
		for _, c := range s.Cores {
			c.L1.Flush()
			c.L2.Flush()
			c.Counters, c.clock, c.elems, c.curElem = Counters{}, 0, nil, 0
		}
	}
}
