// The consolidated zero-allocation tier. Every function annotated
// //dataplane:hotpath (the set vetdp's hotpathalloc analyzer checks
// statically, in TestVetdp) is gated here dynamically with
// testing.AllocsPerRun:
//
//	go test -run TestHotPathAllocs
//
// is the one command that measures the whole hot-path surface. The
// static analyzer proves the absence of allocation *sites*; this tier
// proves the absence of allocation *behaviour* (escape analysis can
// defeat or rescue either one, so the two gates back each other up).
// TestHotPathAllocManifest reads the source tree so a newly annotated
// function cannot silently skip the gate.
package pktpredict_test

import (
	"go/ast"
	"go/token"
	stdruntime "runtime"
	"slices"
	"strings"
	"testing"

	"pktpredict/internal/analysis"
	"pktpredict/internal/apps"
	"pktpredict/internal/click"
	"pktpredict/internal/dpi"
	"pktpredict/internal/elements"
	"pktpredict/internal/handoff"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/nic"
	"pktpredict/internal/obs"
	"pktpredict/internal/runtime"
	"pktpredict/internal/scenario"
	"pktpredict/internal/spsc"
	"pktpredict/internal/synth"
)

// allocSource feeds Pipeline.EmitPacket one reusable packet per pull.
type allocSource struct {
	pkt  click.Packet
	data [64]byte
}

func (s *allocSource) Pull(ctx *click.Ctx) *click.Packet {
	s.pkt.Data = s.data[:]
	ctx.Load(s.pkt.Addr)
	return &s.pkt
}

// allocElem is a minimal element: a compute burst, then continue.
type allocElem struct{}

func (allocElem) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	ctx.Compute(10, 5)
	return click.Continue
}

// The gate's pipeline is Click text over the two doubles, like every
// pipeline the program builds.
func init() {
	click.Register("AllocSource", nil, nil, func(*click.Env, struct{}) (interface{}, error) { return &allocSource{}, nil })
	click.Register("AllocElem", nil, nil, func(*click.Env, struct{}) (interface{}, error) { return allocElem{}, nil })
}

// gate asserts fn performs zero allocations per run.
func gate(t *testing.T, name string, fn func()) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		if n := testing.AllocsPerRun(1000, fn); n != 0 {
			t.Errorf("%s allocates %v/op on the hot path", name, n)
		}
	})
}

// TestHotPathAllocs drives every externally drivable //dataplane:hotpath
// function and asserts it is allocation-free in steady state. Unexported
// helpers are covered through their exported entry points (see
// hotpathIndirect below for the full accounting).
func TestHotPathAllocs(t *testing.T) {
	// obs: metric updates at the control barrier, and the latency shard
	// a worker observes into per packet.
	reg := obs.NewRegistry()
	c := reg.Counter("a_total", "t", "w").With("0")
	g := reg.Gauge("b", "t", "w").With("0")
	gate(t, "obs.Counter.Inc", func() { c.Inc() })
	gate(t, "obs.Counter.Add", func() { c.Add(3) })
	gate(t, "obs.Gauge.Set", func() { g.Set(1.5) })
	var lh obs.LatHist
	gate(t, "obs.LatHist.Observe", func() { lh.Observe(12345) })

	// spsc: the cursor core both rings are built on.
	var cur spsc.Cursor
	cur.Init(64)
	gate(t, "spsc.Cursor.Stage+Commit+Take+Release", func() {
		if _, ok := cur.Stage(); !ok || !cur.Commit() {
			t.Fatal("cursor full")
		}
		if _, ok := cur.Take(); !ok || !cur.Release() {
			t.Fatal("cursor empty")
		}
	})

	// runtime: the worker's SPSC byte ring, scalar and batched paths
	// (Commit and Release are the embedded cursor's).
	ring := runtime.NewRing(64, 256)
	payload := make([]byte, 128)
	dst := make([]byte, 256)
	gate(t, "runtime.Ring.Push+Pop", func() {
		if !ring.Push(payload, 1) {
			t.Fatal("ring full")
		}
		if _, _, ok := ring.Pop(dst); !ok {
			t.Fatal("ring empty")
		}
	})
	gate(t, "runtime.Ring.Stage+Commit+PopStaged+Release", func() {
		if !ring.Stage(payload, 1) {
			t.Fatal("ring full")
		}
		ring.Commit()
		if _, _, ok := ring.PopStaged(dst); !ok {
			t.Fatal("ring empty")
		}
		ring.Release()
	})
	batchBufs := make([][]byte, 8)
	batchDsts := make([][]byte, 8)
	for i := range batchBufs {
		batchBufs[i] = make([]byte, 128)
		batchDsts[i] = make([]byte, 256)
	}
	batchLens := make([]int, 8)
	batchStamps := make([]uint64, 8)
	gate(t, "runtime.Ring.PushBatch+PopBatch", func() {
		if ring.PushBatch(batchBufs, 1) != len(batchBufs) {
			t.Fatal("ring full")
		}
		if ring.PopBatch(batchDsts, batchLens, batchStamps) != len(batchDsts) {
			t.Fatal("ring empty")
		}
	})

	// hw: trace replay with per-element accounting installed (Core.exec).
	plat := hw.NewPlatform(hw.DefaultConfig())
	core := plat.Cores[0]
	core.SetElemTable(make([]hw.ElemCell, 8))
	base := hw.DomainBase(0)
	ops := []hw.Op{
		{Kind: hw.OpCompute, Cycles: 40, Instrs: 20, Elem: 1},
		{Kind: hw.OpLoad, Addr: base + 0x40, Elem: 2},
		{Kind: hw.OpStore, Addr: base + 0x80, Elem: 3},
		{Kind: hw.OpLoadStream, Addr: base + 0x4000, Elem: 4},
	}
	gate(t, "hw.Core.ExecOps", func() { core.ExecOps(ops) })
	gate(t, "hw.Core.ExecStall", func() { core.ExecStall(ops) })

	// click: the Ctx emit surface, with a preallocated trace buffer.
	ctx := &click.Ctx{Ops: make([]hw.Op, 0, 4096)}
	gate(t, "click.Ctx.Load", func() { ctx.Ops = ctx.Ops[:0]; ctx.Load(base) })
	gate(t, "click.Ctx.Store", func() { ctx.Ops = ctx.Ops[:0]; ctx.Store(base) })
	gate(t, "click.Ctx.LoadBytes", func() { ctx.Ops = ctx.Ops[:0]; ctx.LoadBytes(base, 256) })
	gate(t, "click.Ctx.StoreBytes", func() { ctx.Ops = ctx.Ops[:0]; ctx.StoreBytes(base, 256) })
	gate(t, "click.Ctx.DMABytes", func() { ctx.Ops = ctx.Ops[:0]; ctx.DMABytes(base, 256) })
	gate(t, "click.Ctx.Compute", func() { ctx.Ops = ctx.Ops[:0]; ctx.Compute(10, 5) })

	// click: a full pipeline walk (EmitPacket → walk → walkNodes).
	pl, err := click.ParseConfig(&click.Env{Arena: mem.NewArena(0)}, "alloc", "AllocSource -> AllocElem -> AllocElem;")
	if err != nil {
		t.Fatal(err)
	}
	pl.Source.(*allocSource).pkt.Addr = base + 4096
	plBuf := make([]hw.Op, 0, 4096)
	gate(t, "click.Pipeline.EmitPacket", func() { plBuf = pl.EmitPacket(plBuf[:0]) })

	// nic: buffer pool and descriptor rings.
	arena := mem.NewArena(0)
	pool := nic.NewBufferPool(arena, 32, 2048)
	gate(t, "nic.BufferPool.Get+Put", func() {
		ctx.Ops = ctx.Ops[:0]
		pool.Put(ctx, pool.Get(ctx).PoolIndex)
	})
	rx := nic.NewRing(arena, 64)
	gate(t, "nic.Ring.Consume", func() { ctx.Ops = ctx.Ops[:0]; rx.Consume(ctx) })
	gate(t, "nic.Ring.Produce", func() { ctx.Ops = ctx.Ops[:0]; rx.Produce(ctx) })

	// elements: a runtime worker's receive path, FromDevice fed by a ring,
	// one burst of four packets a run.
	fd, err := elements.NewFromDevice(&click.Env{Arena: arena, RxBatch: 4}, elements.FromDeviceConfig{Buffers: 8})
	if err != nil {
		t.Fatal(err)
	}
	feed := runtime.NewRing(8, 64)
	fd.SetFeed(feed)
	gate(t, "elements.FromDevice.Pull+Recycle+EndBatch (fed)", func() {
		ctx.Ops = ctx.Ops[:0]
		for i := 0; i < 4; i++ {
			if !feed.Push(payload[:64], 1) {
				t.Fatal("feed full")
			}
			p := fd.Pull(ctx)
			if p == nil || p.Enq != 1 {
				t.Fatal("fed source delivered no stamped packet")
			}
			fd.Recycle(ctx, p)
		}
		fd.EndBatch()
	})

	// handoff: the inter-stage SPSC ring (poll via PollFull/PollEmpty).
	ho := handoff.New(arena, 64)
	var hp click.Packet
	hp.Addr = base + 8192
	gate(t, "handoff.Ring.Push+Pop", func() {
		ctx.Ops = ctx.Ops[:0]
		if !ho.Push(ctx, &hp, 1, false) {
			t.Fatal("handoff ring full")
		}
		if _, _, _, ok := ho.Pop(ctx); !ok {
			t.Fatal("handoff ring empty")
		}
	})
	gate(t, "handoff.Ring.StagePush+CommitPush+PopStaged+CommitPop", func() {
		ctx.Ops = ctx.Ops[:0]
		if !ho.StagePush(ctx, &hp, 1, false) {
			t.Fatal("handoff ring full")
		}
		ho.CommitPush(ctx)
		if _, _, _, ok := ho.PopStaged(ctx); !ok {
			t.Fatal("handoff ring empty")
		}
		ho.CommitPop(ctx)
	})
	gate(t, "handoff.Ring.PollFull", func() { ctx.Ops = ctx.Ops[:0]; ho.PollFull(ctx) })
	gate(t, "handoff.Ring.PollEmpty", func() { ctx.Ops = ctx.Ops[:0]; ho.PollEmpty(ctx) })
	gate(t, "handoff.Ring.ChargeHeaderMiss", func() { ctx.Ops = ctx.Ops[:0]; ho.ChargeHeaderMiss(ctx, &hp) })

	// synth: the SYN workload's op source.
	syn := synth.NewSource(arena, synth.Config{RegionBytes: 1 << 16})
	synBuf := make([]hw.Op, 0, 4096)
	gate(t, "synth.Source.EmitPacket", func() { synBuf = syn.EmitPacket(synBuf[:0]) })

	// dpi: the IDS engines — signature scan, entropy estimate, ban check.
	sigTab, err := dpi.NewSigTable(arena, dpi.Signatures(11, 16))
	if err != nil {
		t.Fatal(err)
	}
	scanBuf := make([]byte, 484)
	for i := range scanBuf {
		scanBuf[i] = byte(i * 31)
	}
	gate(t, "dpi.SigTable.Match", func() { sigTab.Match(scanBuf) })
	var ent dpi.Entropy
	gate(t, "dpi.Entropy.EstimateBits", func() { ent.EstimateBits(scanBuf, dpi.EntropyWindow) })
	ban, err := dpi.NewBanTable(arena, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Take every slot first: the gated checks are then steady-state
	// evictions, and the first takes' value chunks, which an average over
	// the 1000 runs would round away, are not in the gate.
	var banIP uint32
	for ban.Taken() < 1024 {
		if banIP++; banIP > 1<<20 {
			t.Fatalf("%d addresses took only %d of 1024 ban-table slots", banIP, ban.Taken())
		}
		ctx.Ops = ctx.Ops[:0]
		ban.Check(ctx, banIP)
	}
	gate(t, "dpi.BanTable.Check", func() {
		ctx.Ops = ctx.Ops[:0]
		banIP++
		ban.Check(ctx, banIP)
	})

	// apps: whole flows from their own source — FromDevice.Pull/Recycle,
	// every element's Process (re.Processor.Process among them), ToDevice.
	// Each used to cost one click.Packet a packet, RE nine objects.
	emit := func(name string, p apps.Params, ft apps.FlowType) {
		inst, err := p.BuildSpec(apps.Spec{Type: ft, Seed: 7, SynCompute: 200}, func(int) *mem.Arena { return arena })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		buf := make([]hw.Op, 0, 1<<16)
		for i := 0; i < 2*p.Buffers; i++ { // every pool buffer used; scratch and op buffer at their steady size
			buf = inst.Source.EmitPacket(buf[:0])
		}
		gate(t, name+".EmitPacket", func() { buf = inst.Source.EmitPacket(buf[:0]) })
	}
	for _, ft := range append(slices.Clone(apps.RealisticTypes), apps.SYN) {
		emit("apps."+string(ft), apps.Small(), ft)
	}
	for _, name := range []string{"nat_chain", "ids_chain"} {
		sc, err := scenario.Shipped(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := sc.Config(hw.DefaultConfig(), apps.Small())
		if err != nil {
			t.Fatal(err)
		}
		for ft := range cfg.Params.Custom {
			emit(name+"."+string(ft), cfg.Params, ft)
		}
	}
}

// stagedSLOChain is nat_chain_staged's graph, paced under a p99 objective.
const stagedSLOChain = `scenario :: Scenario(NAME gate, MIN_CORES_PER_SOCKET 2, MIN_SOCKETS 2, PLACE s0:0 s1:0);
graph NATFW {
    src :: FromDevice(SIZE 64);
    cls :: IPClassifier(tcp, udp, -);
    nat :: IPRewriter(EXTIP 198.51.100.1, CAPACITY 65536);
    fw  :: IPFilter(RULES 1000);
    src -> CheckIPHeader -> cls;
    cls[0] -> nat;
    cls[1] -> nat;
    cls[2] -> Discard;
    nat -> fw -> ToDevice;
    stage 1: fw;
}
natfw :: Flow(GRAPH NATFW, WORKERS 1, RATE 400000, SLO_P99_US 500);
`

// TestRuntimePathAllocs gates the runtime's packet path where it does the
// most per packet, in two runs. One is a chain cut across two workers
// (hand-off ring, staged batch ops), every packet traced, latency
// recorded against an SLO. The other is mixed's six one-stage workers on
// one socket at GOMAXPROCS 2 or more, where the CPU budget grants the
// socket an emitter every quantum, so every step crosses the emitter
// handshake. What is left is per control window (the sample and its
// residuals, ~9 objects at every barrier), so windows are made ten times
// rarer than the default and the bound is 0.02 objects a packet
// (measured on the chain: 0.011, start-up and the NAT table's record
// chunks, made as its flows arrive, included): one object per packet,
// per traced span or per 32-packet batch would all break it.
func TestRuntimePathAllocs(t *testing.T) {
	chain, err := scenario.Parse(stagedSLOChain)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := scenario.Load("examples/scenarios/mixed.click")
	if err != nil {
		t.Fatal(err)
	}
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(max(2, stdruntime.GOMAXPROCS(0))))
	for _, c := range []struct {
		name     string
		sc       *scenario.Scenario
		duration float64
	}{{"staged chain", chain, 0.1}, {"mixed with an emitter", mixed, 0.01}} {
		cfg, err := c.sc.Config(hw.DefaultConfig(), apps.Small())
		if err != nil {
			t.Fatal(err)
		}
		cfg.TraceSample, cfg.ControlEvery, cfg.Metrics = 1, 50, obs.NewRegistry()
		r, err := runtime.NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after stdruntime.MemStats
		stdruntime.ReadMemStats(&before)
		rep, err := r.Run(c.duration)
		if err != nil {
			t.Fatal(err)
		}
		stdruntime.ReadMemStats(&after)
		pkts := rep.TotalProcessed()
		if c.sc == chain && len(r.Tracer().Events()) == 0 {
			t.Fatalf("%s: no packet was traced", c.name)
		}
		if c.sc == mixed && familyTotal(cfg.Metrics, "dataplane_socket_emitter_quanta_total") == 0 {
			t.Fatalf("%s: no quantum ran with an emitter", c.name)
		}
		mallocs := after.Mallocs - before.Mallocs
		t.Logf("%s: %d mallocs for %d packets", c.name, mallocs, pkts)
		if pkts < 5000 || float64(mallocs) > 0.02*float64(pkts) {
			t.Fatalf("%s: %d mallocs for %d packets: want at least 5000 packets and at most 0.02 objects a packet", c.name, mallocs, pkts)
		}
	}
}

// familyTotal sums a metric family's series in reg.
func familyTotal(reg *obs.Registry, name string) float64 {
	total := 0.0
	for _, f := range reg.Snapshot().Families {
		if f.Name == name {
			for _, ss := range f.Series {
				total += ss.Value
			}
		}
	}
	return total
}

// hotpathDirect lists the //dataplane:hotpath functions TestHotPathAllocs
// drives directly, keyed pkg.Recv.Method (or pkg.Func).
var hotpathDirect = map[string]bool{
	"obs.Counter.Inc":               true,
	"obs.Counter.Add":               true,
	"obs.Gauge.Set":                 true,
	"obs.LatHist.Observe":           true,
	"spsc.Cursor.Stage":             true,
	"spsc.Cursor.Commit":            true,
	"spsc.Cursor.Take":              true,
	"spsc.Cursor.Release":           true,
	"runtime.Ring.Push":             true,
	"runtime.Ring.Pop":              true,
	"runtime.Ring.Stage":            true,
	"runtime.Ring.PushBatch":        true,
	"runtime.Ring.PopStaged":        true,
	"runtime.Ring.PopBatch":         true,
	"hw.Core.ExecOps":               true,
	"hw.Core.ExecStall":             true,
	"click.Ctx.Load":                true,
	"click.Ctx.Store":               true,
	"click.Ctx.LoadBytes":           true,
	"click.Ctx.StoreBytes":          true,
	"click.Ctx.DMABytes":            true,
	"click.Ctx.Compute":             true,
	"elements.FromDevice.EndBatch":  true,
	"click.Pipeline.EmitPacket":     true,
	"nic.BufferPool.Get":            true,
	"nic.BufferPool.Put":            true,
	"nic.Ring.Consume":              true,
	"nic.Ring.Produce":              true,
	"handoff.Ring.Push":             true,
	"handoff.Ring.Pop":              true,
	"handoff.Ring.StagePush":        true,
	"handoff.Ring.CommitPush":       true,
	"handoff.Ring.PopStaged":        true,
	"handoff.Ring.CommitPop":        true,
	"handoff.Ring.PollFull":         true,
	"handoff.Ring.PollEmpty":        true,
	"handoff.Ring.ChargeHeaderMiss": true,
	"synth.Source.EmitPacket":       true,
	"dpi.SigTable.Match":            true,
	"dpi.Entropy.EstimateBits":      true,
	"dpi.BanTable.Check":            true,
}

// hotpathIndirect lists annotated functions that cannot be driven from
// an external test, each with the exported entry point that covers it.
var hotpathIndirect = map[string]string{
	"hw.Core.exec":                "unexported; every ExecOps/ExecStall call above runs it",
	"click.walkNodes":             "unexported; Pipeline.EmitPacket above walks the graph",
	"handoff.Ring.poll":           "unexported; PollFull/PollEmpty above are thin wrappers",
	"handoff.Ring.chargeCursor":   "unexported; every CommitPush/CommitPop above that moves a cursor runs it",
	"elements.FromDevice.Pull":    "every apps.*.EmitPacket gate above pulls from the flow's own FromDevice",
	"elements.FromDevice.Recycle": "every apps.*.EmitPacket gate above recycles into the flow's own FromDevice",
	"re.Processor.Process":        "apps.RE.EmitPacket above runs it on every packet",
	"runtime.emitter.claim":       "unexported; TestRuntimePathAllocs's mixed run claims every step it is asked for",
	"runtime.emitter.request":     "unexported; TestRuntimePathAllocs's mixed run requests every step the one-step rule allows",
	"runtime.emitter.take":        "unexported; TestRuntimePathAllocs's mixed run takes every step through it",
}

// TestVetdp runs vetdp — the //dataplane: directive check and the
// hotpathalloc and elemstamp analyzers (internal/analysis,
// docs/static-analysis.md) — over the non-test files of every package of
// the root module, on the module's one typed load. bench/ is its own
// module and is not checked. Each diagnostic fails the test as
// file:line:col: message.
func TestVetdp(t *testing.T) {
	m := loadModule(t)
	for _, p := range m.pkgs {
		if p.nonTest == 0 || strings.HasPrefix(p.path, "pktpredict/bench/") {
			continue
		}
		for _, d := range analysis.Check(m.fset, p.files[:p.nonTest], p.pkg, p.info) {
			t.Errorf("%s: %s", m.fset.Position(d.Pos), d.Message)
		}
	}
}

// TestHotPathAllocManifest reads internal/ for //dataplane:hotpath
// annotations and fails if any annotated function is neither directly
// gated above nor accounted for in hotpathIndirect — so annotating a
// function automatically demands an alloc gate for it. It also fails on
// stale entries, keeping the manifest in lockstep with the annotations.
func TestHotPathAllocManifest(t *testing.T) {
	annotated := map[string]token.Position{}
	m := loadModule(t)
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.path, "pktpredict/internal/") {
			continue
		}
		for _, f := range p.files[:p.nonTest] {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, cm := range fd.Doc.List {
					if cm.Text != "//dataplane:hotpath" && !strings.HasPrefix(cm.Text, "//dataplane:hotpath ") {
						continue
					}
					key := f.Name.Name + "."
					if fd.Recv != nil && len(fd.Recv.List) > 0 {
						rt := fd.Recv.List[0].Type
						if star, ok := rt.(*ast.StarExpr); ok {
							rt = star.X
						}
						if id, ok := rt.(*ast.Ident); ok {
							key += id.Name + "."
						}
					}
					key += fd.Name.Name
					annotated[key] = m.fset.Position(fd.Pos())
				}
			}
		}
	}
	if len(annotated) == 0 {
		t.Fatal("found no //dataplane:hotpath annotations under internal/; the walker is broken")
	}
	for key, pos := range annotated {
		if !hotpathDirect[key] && hotpathIndirect[key] == "" {
			t.Errorf("%s: %s is annotated //dataplane:hotpath but has no alloc gate: add it to TestHotPathAllocs (or to hotpathIndirect with the entry point that covers it)", pos, key)
		}
	}
	for key := range hotpathDirect {
		if _, ok := annotated[key]; !ok {
			t.Errorf("hotpathDirect lists %s, which carries no //dataplane:hotpath annotation; prune it", key)
		}
	}
	for key := range hotpathIndirect {
		if _, ok := annotated[key]; !ok {
			t.Errorf("hotpathIndirect lists %s, which carries no //dataplane:hotpath annotation; prune it", key)
		}
	}
}
