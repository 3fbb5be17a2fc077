package apps

import (
	"testing"

	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/nat"
)

// testPlatform returns a scaled-down platform that keeps the 2-socket
// structure but with small caches so behaviour shows quickly.
func testPlatform() *hw.Platform {
	cfg := hw.DefaultConfig()
	cfg.L1D = hw.CacheGeom{SizeBytes: 4 << 10, Ways: 4}
	cfg.L2 = hw.CacheGeom{SizeBytes: 32 << 10, Ways: 8}
	cfg.L3 = hw.CacheGeom{SizeBytes: 256 << 10, Ways: 16}
	return hw.NewPlatform(cfg)
}

func TestBuildAllRealisticTypes(t *testing.T) {
	p := Small()
	for _, ft := range RealisticTypes {
		ft := ft
		t.Run(string(ft), func(t *testing.T) {
			arena := mem.NewArena(0)
			inst, err := p.Build(ft, arena, 7)
			if err != nil {
				t.Fatalf("Build(%s): %v", ft, err)
			}
			if inst.Pipeline == nil {
				t.Fatal("realistic flows must have a pipeline")
			}
			// Run some packets through a simulated core.
			plat := testPlatform()
			e := hw.NewEngine(plat)
			e.Attach(0, string(ft), inst.Source)
			e.RunUntil(3_000_000)
			c := plat.Cores[0].Counters
			if c.Packets < 10 {
				t.Fatalf("only %d packets in 3M cycles", c.Packets)
			}
			if c.L3Refs == 0 {
				t.Fatal("no L3 references; flow is not exercising memory")
			}
			for _, n := range inst.Pipeline.Nodes() {
				if n.Dropped > 0 {
					t.Fatalf("%s dropped %d packets; workloads must forward everything", n.Name, n.Dropped)
				}
			}
		})
	}
}

func TestBuildSynTypes(t *testing.T) {
	p := Small()
	for _, ft := range []FlowType{SYN, SYNMAX} {
		arena := mem.NewArena(0)
		inst, err := p.Build(ft, arena, 3)
		if err != nil {
			t.Fatalf("Build(%s): %v", ft, err)
		}
		if inst.Pipeline != nil {
			t.Fatal("synthetic flows must not have a pipeline")
		}
		ops := inst.Source.EmitPacket(nil)
		if len(ops) == 0 {
			t.Fatal("no ops emitted")
		}
	}
}

func TestSynMaxMoreAggressiveThanSyn(t *testing.T) {
	p := Small()
	run := func(inst *Instance) float64 {
		e := hw.NewEngine(testPlatform())
		e.Attach(0, "syn", inst.Source)
		return e.MeasureWindow(0.0002, 0.001)[0].L3RefsPerSec()
	}
	measure := func(ft FlowType) float64 {
		inst, _ := p.Build(ft, mem.NewArena(0), 5)
		return run(inst)
	}
	syn, synMax := measure(SYN), measure(SYNMAX)
	if synMax <= syn {
		t.Fatalf("SYN_MAX refs/sec (%.0f) must exceed SYN's (%.0f)", synMax, syn)
	}
	// A declared SYN flow takes its compute gap from the spec, so the
	// profiling sweep's last grid point (gap 0) is SYN_MAX exactly — not
	// the moderate gap Build gives a bare SYN.
	inst, err := buildSpec(p, Spec{Type: SYN, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if zero := run(inst); zero != synMax {
		t.Fatalf("SYN with SynCompute 0: %.0f refs/sec, want SYN_MAX's %.0f", zero, synMax)
	}
}

func TestRelativeWorkloadWeight(t *testing.T) {
	// Heavier per-packet processing must show up as higher cycles/packet:
	// IP < MON < VPN < FW (1000-rule scan) in the paper's Table 1.
	p := Small()
	cyc := map[FlowType]float64{}
	for _, ft := range []FlowType{IP, MON, FW, VPN} {
		plat := testPlatform()
		inst, err := p.Build(ft, mem.NewArena(0), 11)
		if err != nil {
			t.Fatal(err)
		}
		e := hw.NewEngine(plat)
		e.Attach(0, string(ft), inst.Source)
		st := e.MeasureWindow(0.0005, 0.002)[0]
		cyc[ft] = st.CyclesPerPacket()
	}
	if !(cyc[IP] < cyc[MON] && cyc[MON] < cyc[VPN] && cyc[VPN] < cyc[FW]) {
		t.Fatalf("cycles/packet ordering wrong: IP=%.0f MON=%.0f VPN=%.0f FW=%.0f",
			cyc[IP], cyc[MON], cyc[VPN], cyc[FW])
	}
}

// buildSpec builds s with all state in one fresh arena.
func buildSpec(p Params, s Spec) (*Instance, error) {
	a := mem.NewArena(0)
	return p.BuildSpec(s, func(int) *mem.Arena { return a })
}

func TestBuildSpecControl(t *testing.T) {
	p := Small()
	inst, err := buildSpec(p, Spec{Type: MON, Seed: 9, Control: true})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Control == nil {
		t.Fatal("control element missing")
	}
	if inst.Pipeline.Nodes()[0].El != inst.Control {
		t.Fatal("control element must be first in the chain")
	}
	for _, syn := range []FlowType{SYN, SYNMAX} {
		if _, err := buildSpec(p, Spec{Type: syn, Seed: 9, Control: true}); err == nil {
			t.Fatalf("%s with control element must fail", syn)
		}
	}
}

func TestBuildSpecHiddenTrigger(t *testing.T) {
	p := Small()
	// Trigger after 2000 packets: far beyond the "before" window below.
	inst, err := buildSpec(p, Spec{Type: FW, Seed: 13, HiddenTrigger: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Control == nil {
		t.Fatal("the aggressor must carry a control element for the throttle to act on")
	}
	if _, err := buildSpec(p, Spec{Type: MON, Seed: 13, HiddenTrigger: 2000}); err == nil {
		t.Fatal("a hidden trigger on a non-FW type must fail")
	}
	plat := testPlatform()
	e := hw.NewEngine(plat)
	e.Attach(0, "hidden", inst.Source)

	// Before the trigger the flow behaves like FW; after it, its L3
	// refs/packet must jump.
	e.RunUntil(1_000_000)
	before := plat.Cores[0].Counters
	if before.Packets >= 2000 {
		t.Fatalf("before-window already passed the trigger (%d packets)", before.Packets)
	}
	e.RunUntil(20_000_000) // run well past the trigger point
	mid := plat.Cores[0].Counters
	e.RunUntil(80_000_000)
	delta := plat.Cores[0].Counters.Sub(mid)
	if delta.Packets == 0 {
		t.Fatal("no progress after trigger")
	}
	refsPerPacketBefore := float64(before.L3Refs) / float64(before.Packets)
	refsPerPacketAfter := float64(delta.L3Refs) / float64(delta.Packets)
	if refsPerPacketAfter < refsPerPacketBefore*1.5 {
		t.Fatalf("aggression did not manifest: %.1f → %.1f refs/packet",
			refsPerPacketBefore, refsPerPacketAfter)
	}
}

func TestDeterministicBuildAndRun(t *testing.T) {
	p := Small()
	run := func() hw.Counters {
		plat := testPlatform()
		inst, _ := p.Build(MON, mem.NewArena(0), 21)
		e := hw.NewEngine(plat)
		e.Attach(0, "MON", inst.Source)
		e.RunUntil(2_000_000)
		return plat.Cores[0].Counters
	}
	if run() != run() {
		t.Fatal("identical builds produced different counters")
	}
}

func TestParseFlowType(t *testing.T) {
	cases := map[string]FlowType{
		"IP": IP, "mon": MON, "Fw": FW, "re": RE, "VPN": VPN,
		"syn": SYN, "SYN_MAX": SYNMAX, "synmax": SYNMAX,
	}
	for s, want := range cases {
		got, err := ParseFlowType(s)
		if err != nil || got != want {
			t.Fatalf("ParseFlowType(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFlowType("bogus"); err == nil {
		t.Fatal("unknown type must error")
	}
}

func TestBuildUnknownType(t *testing.T) {
	if _, err := Default().Build("NOPE", mem.NewArena(0), 1); err == nil {
		t.Fatal("unknown type must error")
	}
}

func TestConfigRendering(t *testing.T) {
	cfg := Small().Config(FW, 3)
	for _, want := range []string{"FromDevice", "CheckIPHeader", "RadixIPLookup", "NetFlow", "IPFilter", "ToDevice"} {
		if !contains(cfg, want) {
			t.Fatalf("FW config missing %s:\n%s", want, cfg)
		}
	}
	if contains(Small().Config(IP, 3), "NetFlow") {
		t.Fatal("IP config must not include NetFlow")
	}
	if Small().Config(SYN, 3) != "" {
		t.Fatal("SYN has no click config")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Custom flow types: a scenario-registered Click graph behaves like a
// builtin type through Config, PacketSize, and Build — including the
// branching NAT service chain the nat_chain scenario ships.
func TestCustomFlowTypeBuilds(t *testing.T) {
	params := Small()
	params.Custom = map[FlowType]CustomFlow{
		"NATFW": {
			PacketSize: 128,
			Config: `
				src :: FromDevice(SIZE 128);
				cls :: IPClassifier(tcp, udp, -);
				nat :: IPRewriter(CAPACITY 256);
				src -> CheckIPHeader -> cls;
				cls[0] -> nat;
				cls[1] -> nat;
				cls[2] -> Discard;
				nat -> IPFilter(RULES 64) -> ToDevice;
			`,
		},
	}
	if got := params.PacketSize("NATFW"); got != 128 {
		t.Fatalf("PacketSize = %d, want 128", got)
	}
	if params.Config("NATFW", 1) == "" {
		t.Fatal("custom config not returned")
	}
	inst, err := params.Build("NATFW", mem.NewArena(0), 7)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !inst.Pipeline.Branching() {
		t.Fatal("NAT chain should be a branching pipeline")
	}
	for i := 0; i < 50; i++ {
		if len(inst.Pipeline.EmitPacket(nil)) == 0 {
			t.Fatalf("packet %d emitted no trace", i)
		}
	}
	// The NAT drops exactly the packets it cannot rewrite, so a NAT node
	// that dropped nothing rewrote everything it forwarded.
	var sent uint64
	for _, n := range inst.Pipeline.Nodes() {
		if _, ok := n.El.(*nat.Element); ok && n.Dropped != 0 {
			t.Fatalf("NAT dropped %d packets it could not rewrite", n.Dropped)
		}
		sent += n.Finished
	}
	if sent == 0 {
		t.Fatal("the NAT chain sent nothing")
	}

	// A control element still lands at the head of a custom pipeline.
	withCtl, err := buildSpec(params, Spec{Type: "NATFW", Seed: 7, Control: true})
	if err != nil {
		t.Fatal(err)
	}
	if withCtl.Pipeline.Nodes()[0].El != withCtl.Control {
		t.Fatal("control element not at pipeline head")
	}

	if _, err := Small().Build("NATFW", mem.NewArena(0), 7); err == nil {
		t.Fatal("unknown custom type must error without registration")
	}
}

func TestBuildRecordsStateBindings(t *testing.T) {
	p := Small()
	a := mem.NewArena(0)
	inst, err := p.Build(MON, a, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.State) == 0 {
		t.Fatal("no state bindings recorded")
	}
	var sawSource, sawTable bool
	for _, b := range inst.State {
		if b.Domain() != 0 {
			t.Fatalf("binding %+v outside domain 0", b)
		}
		if b.Base < hw.DomainBase(0)+4096 {
			t.Fatalf("binding %+v inside the reserved null page", b)
		}
		if b.Source {
			sawSource = true
		}
		if b.Element == "NetFlow@4" || b.Element == "RadixIPLookup@2" {
			sawTable = true
		}
	}
	if !sawSource {
		t.Fatal("source allocations not marked")
	}
	if !sawTable {
		t.Fatalf("no table bindings among %+v", inst.State)
	}
	live := inst.StateBytes(-1)
	if live == 0 {
		t.Fatal("zero live footprint")
	}
	// The trie reserves ~640 MiB of address space; the live footprint
	// must reflect touched bytes, not the reservation.
	if live > 64<<20 {
		t.Fatalf("live footprint %d includes address-space reservations", live)
	}
	for _, b := range inst.StateBindings(-1) {
		if b.Source {
			t.Fatalf("live bindings include the source: %+v", b)
		}
	}
}

func TestBuildSpecAllocatesPerStage(t *testing.T) {
	p := Small()
	custom := map[FlowType]CustomFlow{
		"MONC": {
			Config: `
				src :: FromDevice(SIZE 64, FLOWS 512, BUFFERS 64);
				chk :: CheckIPHeader;
				rt  :: RadixIPLookup(ROUTES 1000);
				nf  :: NetFlow(ENTRIES 512);
				src -> chk -> rt -> nf -> ToDevice;
				stage 1: nf;
			`,
			PacketSize: 64,
		},
	}
	p.Custom = custom
	arenas := []*mem.Arena{mem.NewArena(0), mem.NewArena(1)}
	inst, err := p.BuildSpec(Spec{Type: "MONC", Seed: 11}, func(s int) *mem.Arena { return arenas[s] })
	if err != nil {
		t.Fatal(err)
	}
	if inst.Pipeline.NumStages() != 2 {
		t.Fatalf("stages = %d, want 2", inst.Pipeline.NumStages())
	}
	for _, b := range inst.State {
		want := b.Stage // stage 0 state in domain 0, stage 1 in domain 1
		if b.Domain() != want {
			t.Fatalf("binding %+v: stage %d state in domain %d", b, b.Stage, b.Domain())
		}
		if b.Base < hw.DomainBase(want) || b.Base >= hw.DomainBase(want+1) {
			t.Fatalf("binding %+v outside its domain's address range", b)
		}
	}
	// The cut's downstream elements inherit stage 1, so both the NetFlow
	// table and the ToDevice ring must be in domain 1.
	if n := len(inst.StateBindings(1)); n < 2 {
		t.Fatalf("stage 1 owns %d bindings, want NetFlow and ToDevice", n)
	}
	if inst.StateBytes(0) == 0 || inst.StateBytes(1) == 0 {
		t.Fatalf("per-stage footprints: %d / %d, both must be non-zero",
			inst.StateBytes(0), inst.StateBytes(1))
	}
}
