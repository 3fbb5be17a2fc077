package hw

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// Robustness and invariant tests across the hw package: counter algebra,
// derived statistics, function registry, and cross-configuration
// determinism.

func TestCountersSubRoundTrip(t *testing.T) {
	a := Counters{Cycles: 100, Instructions: 80, Packets: 3, L3Refs: 20, L3Hits: 15, L3Misses: 5}
	a.Func[1] = FuncCounters{Cycles: 10, L3Refs: 4, L3Hits: 3, L3Misses: 1}
	zero := Counters{}
	if a.Sub(zero) != a {
		t.Fatal("X - 0 must equal X")
	}
	if d := a.Sub(a); d != zero {
		t.Fatalf("X - X must be zero, got %+v", d)
	}
}

func TestCountersDerived(t *testing.T) {
	c := Counters{Cycles: 200, Instructions: 100, Packets: 4, L3Refs: 8}
	if c.CPI() != 2.0 {
		t.Fatalf("CPI = %v", c.CPI())
	}
	if c.PerPacket(c.L3Refs) != 2.0 {
		t.Fatalf("PerPacket = %v", c.PerPacket(c.L3Refs))
	}
	var empty Counters
	if empty.CPI() != 0 || empty.PerPacket(5) != 0 {
		t.Fatal("zero-division guards missing")
	}
}

func TestFlowStatsDerivations(t *testing.T) {
	st := NewFlowStats("x", Counters{
		Packets: 1000, Cycles: 2_800_000, Instructions: 2_000_000,
		L3Refs: 10_000, L3Hits: 8_000, L3Misses: 2_000, L2Hits: 5_000,
	}, 2_800_000, 2.8e9)
	if st.Seconds != 0.001 {
		t.Fatalf("Seconds = %v", st.Seconds)
	}
	if st.Throughput() != 1e6 {
		t.Fatalf("Throughput = %v", st.Throughput())
	}
	if st.L3RefsPerSec() != 1e7 {
		t.Fatalf("L3RefsPerSec = %v", st.L3RefsPerSec())
	}
	if st.L2HitsPerPacket() != 5 {
		t.Fatalf("L2HitsPerPacket = %v", st.L2HitsPerPacket())
	}
	var zero FlowStats
	if zero.Throughput() != 0 || zero.CPI() != 0 {
		t.Fatal("zero-value stats must not divide by zero")
	}
}

func TestFuncRegistry(t *testing.T) {
	a := RegisterFunc("robustness_test_fn")
	b := RegisterFunc("robustness_test_fn")
	if a != b {
		t.Fatal("re-registration must return the same id")
	}
	if FuncName(a) != "robustness_test_fn" {
		t.Fatalf("FuncName = %q", FuncName(a))
	}
	if FuncName(FuncID(200)) != "other" {
		t.Fatal("unknown ids must name as other")
	}
	names := FuncNames()
	if names[0] != "other" {
		t.Fatalf("id 0 must be other, got %q", names[0])
	}
}

func TestAddrHelpers(t *testing.T) {
	if DomainOf(DomainBase(1)+123) != 1 {
		t.Fatal("DomainOf(DomainBase(1)+x) != 1")
	}
	if LineOf(0x7f) != 0x40 {
		t.Fatalf("LineOf(0x7f) = %#x", LineOf(0x7f))
	}
}

// Property: per-core counters are internally consistent after arbitrary
// access sequences: L1 refs = L1 hits + L2 refs, L2 refs = L2 hits + L3
// refs, L3 refs = L3 hits + misses.
func TestCounterHierarchyInvariantQuick(t *testing.T) {
	f := func(addrs []uint32, writes []bool) bool {
		cfg := smallConfig()
		p := NewPlatform(cfg)
		core := p.Cores[0]
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			core.Access(uint64(i), Addr(a%(1<<22)), w, FuncOther)
		}
		c := core.Counters
		return c.L1Refs == c.L1Hits+c.L2Refs &&
			c.L2Refs == c.L2Hits+c.L3Refs &&
			c.L3Refs == c.L3Hits+c.L3Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-function L3 counters sum to the core totals.
func TestFuncAttributionSumsQuick(t *testing.T) {
	fnA := RegisterFunc("attr_sum_a")
	fnB := RegisterFunc("attr_sum_b")
	f := func(addrs []uint16) bool {
		cfg := smallConfig()
		p := NewPlatform(cfg)
		core := p.Cores[0]
		for i, a := range addrs {
			fn := fnA
			if i%2 == 1 {
				fn = fnB
			}
			core.Access(uint64(i), Addr(a), false, fn)
		}
		c := core.Counters
		var refs, hits, misses uint64
		for i := range c.Func {
			refs += c.Func[i].L3Refs
			hits += c.Func[i].L3Hits
			misses += c.Func[i].L3Misses
		}
		return refs == c.L3Refs && hits == c.L3Hits && misses == c.L3Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: identical op streams produce identical platform-wide state
// regardless of which socket the flow runs on (with domain-local data).
func TestSocketSymmetryQuick(t *testing.T) {
	f := func(seed uint64) bool {
		run := func(socket int) Counters {
			cfg := smallConfig()
			p := NewPlatform(cfg)
			e := NewEngine(p)
			coreID := socket * cfg.CoresPerSocket
			base := DomainBase(socket)
			e.Attach(coreID, "t", stridedSource(base+Addr(seed%4096)*LineSize, 512, 8))
			e.RunUntil(200_000)
			return p.Cores[coreID].Counters
		}
		return run(0) == run(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.TotalCores() != 12 {
		t.Fatalf("TotalCores = %d", cfg.TotalCores())
	}
	if cfg.CyclesToSeconds(cfg.SecondsToCycles(0.5)) != 0.5 {
		t.Fatal("cycle/second conversion must round-trip")
	}
}

func TestStreamLoadCheaperThanLoad(t *testing.T) {
	cfg := smallConfig()
	run := func(kind OpKind) uint64 {
		p := NewPlatform(cfg)
		e := NewEngine(p)
		n := 0
		e.Attach(0, "t", SourceFunc(func(buf []Op) []Op {
			if n >= 256 {
				return buf
			}
			n++
			return append(buf, Op{Kind: kind, Addr: Addr(n * 64 * 1024)})
		}))
		e.RunUntil(1 << 40)
		return p.Cores[0].Counters.Cycles
	}
	serial := run(OpLoad)
	stream := run(OpLoadStream)
	if stream*2 >= serial {
		t.Fatalf("stream loads (%d cycles) must be much cheaper than serial (%d)", stream, serial)
	}
}

// TestUnknownOpPanics: an op kind the interpreter does not know is a
// bug in the emitter, and both executors must refuse it loudly — without
// leaving the socket's lock held, which would deadlock every peer core
// on the socket. The bad op after a load arrives mid-hold.
func TestUnknownOpPanics(t *testing.T) {
	bad := Op{Kind: OpKind(99)}
	paths := map[string]func(p *Platform){
		"engine": func(p *Platform) {
			e := NewEngine(p)
			e.Attach(0, "bad", SourceFunc(func(buf []Op) []Op { return append(buf, bad) }))
			e.RunUntil(1000)
		},
		"ExecOps":            func(p *Platform) { p.Cores[0].ExecOps([]Op{bad}) },
		"ExecStall":          func(p *Platform) { p.Cores[0].ExecStall([]Op{bad}) },
		"ExecOps after load": func(p *Platform) { p.Cores[0].ExecOps([]Op{{Kind: OpLoad, Addr: 64}, bad}) },
	}
	for name, run := range paths {
		t.Run(name, func(t *testing.T) {
			p := NewPlatform(smallConfig())
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("expected panic for unknown op kind")
					}
				}()
				run(p)
			}()
			done := make(chan struct{})
			go func() {
				p.Cores[1].ExecOps([]Op{{Kind: OpLoad, Addr: 64}, {Kind: OpDMAWrite, Addr: 128}})
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("core 1 still blocked after 5 s: the panic left socket 0's lock held")
			}
		})
	}
}

// TestExecOpsConcurrentSockets drives four cores on each socket of a
// small inclusive platform from their own goroutines — the runtime's
// execution mode — with traces that mix DMA writes, stores, stream loads
// and remote-domain loads over far more lines than the L3 holds, so
// back-invalidation crosses cores while they run. Host interleaving
// varies, but the counter identities may not: every op is counted once
// at every level it reaches, and every remote reference crosses a QPI
// link exactly once. Run it under -race.
func TestExecOpsConcurrentSockets(t *testing.T) {
	cfg := smallConfig()
	p := NewPlatform(cfg)
	p.BoundChannelWaits(32)          // the runtime's DefaultMaxQueueWait
	const packets, lines = 300, 2048 // 128 KiB a core against a 16 KiB L3
	var cores []*Core
	for _, s := range p.Sockets {
		cores = append(cores, s.Cores[:4]...)
	}
	var wg sync.WaitGroup
	for i, c := range cores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sock := c.ID / cfg.CoresPerSocket
			local := DomainBase(sock) + Addr(i)*lines*LineSize
			remote := DomainBase(1-sock) + Addr(i)*lines*LineSize
			var ops []Op
			for n := 0; n < packets; n++ {
				line := func(k int) Addr { return Addr((n*7+k*131)%lines) * LineSize }
				ops = append(ops[:0],
					Op{Kind: OpDMAWrite, Addr: local + line(0)},
					Op{Kind: OpLoad, Addr: local + line(0)},
					Op{Kind: OpCompute, Cycles: 40, Instrs: 30},
					Op{Kind: OpStore, Addr: local + line(1)},
					Op{Kind: OpLoadStream, Addr: local + line(2)},
					Op{Kind: OpLoadStream, Addr: local + line(3)},
					Op{Kind: OpCompute, Cycles: 20, Instrs: 10},
					Op{Kind: OpLoad, Addr: remote + line(4)},
					Op{Kind: OpStore, Addr: remote + line(5)},
				)
				c.ExecOps(ops)
			}
		}()
	}
	wg.Wait()

	const memOps = 6 * packets // every op of a trace but the DMA write and the two computes
	var remoteRefs, qpiRequests uint64
	for _, c := range cores {
		k := c.Counters
		if k.L1Hits+k.L2Refs != k.L1Refs || k.L2Hits+k.L3Refs != k.L2Refs || k.L3Hits+k.L3Misses != k.L3Refs {
			t.Errorf("core %d: counter hierarchy broken: %+v", c.ID, k)
		}
		if k.L1Refs != memOps || k.Packets != packets {
			t.Errorf("core %d: %d L1 refs / %d packets, want %d / %d", c.ID, k.L1Refs, k.Packets, memOps, packets)
		}
		remoteRefs += k.RemoteRefs
	}
	for i, s := range p.Sockets {
		qpiRequests += served(s.QPI)
		// An L3 line leaves only by eviction, so more fills than lines
		// evicted some.
		var fills uint64
		for _, c := range s.Cores {
			fills += c.Counters.L3Misses
		}
		if fills <= uint64(cfg.L3.SizeBytes/LineSize) {
			t.Errorf("socket %d: %d L3 fills, no eviction, so no back-invalidation was exercised", i, fills)
		}
	}
	if remoteRefs == 0 || remoteRefs != qpiRequests {
		t.Errorf("Σ RemoteRefs %d, Σ QPI requests %d: want equal and non-zero", remoteRefs, qpiRequests)
	}
}
