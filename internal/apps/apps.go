// Package apps assembles the paper's packet-processing flow types
// (Section 2.1) from Click elements:
//
//	IP   — full IPv4 forwarding: header check, radix-trie LPM over a
//	       128000-entry table, TTL decrement with incremental checksum.
//	MON  — IP + NetFlow monitoring over a 100000-entry flow table.
//	FW   — MON + a 1000-rule sequential firewall that no packet matches.
//	RE   — MON + redundancy elimination (Rabin fingerprints, fingerprint
//	       table, packet store).
//	VPN  — MON + AES-128 CTR encryption of the payload.
//	SYN  — the synthetic profiling workload; SYN_MAX is its most
//	       aggressive setting.
//
// Pipelines are built through the Click configuration language, so the
// composition path exercised here is the one a user of the library
// writes.
package apps

import (
	"fmt"
	"strings"

	"pktpredict/internal/click"
	"pktpredict/internal/elements"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/synth"
	"pktpredict/internal/trafficgen"

	// Element providers register their classes with the click registry.
	_ "pktpredict/internal/aes"
	_ "pktpredict/internal/firewall"
	_ "pktpredict/internal/iplookup"
	_ "pktpredict/internal/nat"
	_ "pktpredict/internal/netflow"
	_ "pktpredict/internal/re"
)

// FlowType names one of the paper's workloads.
type FlowType string

// The realistic flow types of Section 2.1, plus the synthetic ones.
const (
	IP     FlowType = "IP"
	MON    FlowType = "MON"
	FW     FlowType = "FW"
	RE     FlowType = "RE"
	VPN    FlowType = "VPN"
	SYN    FlowType = "SYN"
	SYNMAX FlowType = "SYN_MAX"
)

// RealisticTypes lists the five deployed-application workloads in the
// paper's order.
var RealisticTypes = []FlowType{IP, MON, FW, RE, VPN}

// Synthetic reports whether t is one of the synthetic profiling
// workloads, which have no Click pipeline and drive themselves rather
// than consuming NIC traffic.
func (t FlowType) Synthetic() bool { return t == SYN || t == SYNMAX }

// Params scales the workloads. Default() is the paper's configuration;
// Small() shrinks tables for fast unit tests while preserving structure.
type Params struct {
	Routes         int // radix-trie routing-table entries
	NetFlowEntries int // flow-table entries
	FirewallRules  int // sequential filter rules
	REStoreBytes   int // packet-store capacity
	RETableEntries int // fingerprint-table slots
	RESampleBits   int // fingerprint sampling (1 in 2^bits)

	PacketSizeIP  int // bytes, for IP/MON/FW flows
	PacketSizeVPN int
	PacketSizeRE  int

	TrafficFlows int // distinct 5-tuples generated (NetFlow population)
	Buffers      int // per-core packet-buffer pool

	SynRegionBytes int // SYN data-structure size (the L3 size)
	SynAccesses    int // SYN memory reads per packet

	// RxBatch is the modelled receive batch size (the scenario BATCH
	// key): sources charge their RX poll cost once per RxBatch packets
	// instead of per packet. 0 or 1 is the unbatched historical model.
	// It must be set identically for offline profiling and the runtime,
	// or predictions diverge from measurements; Scenario.Config does so.
	RxBatch int

	// Custom declares user-defined flow types: scenario files register a
	// named Click graph here and then use its name anywhere a builtin
	// FlowType is accepted — building, offline profiling, and the
	// concurrent runtime all work unchanged. The map is shared by value
	// copies of Params; treat it as immutable after setup.
	Custom map[FlowType]CustomFlow
}

// CustomFlow is one user-defined flow type: a Click configuration whose
// head is a Source (replaced by the receive ring when run under the
// concurrent runtime) and the packet profile its traffic is generated
// with. The configuration's `stage N:` statements, if any, cut the graph
// into a cross-worker service chain: offline profiling still runs the
// whole graph on one core; the concurrent runtime places each stage on
// its own worker connected by hand-off rings.
type CustomFlow struct {
	Config     string
	PacketSize int // generated packet size (default PacketSizeIP)
}

// Default returns the paper-scale parameters.
func Default() Params {
	return Params{
		Routes:         128000,
		NetFlowEntries: 100000,
		FirewallRules:  1000,
		REStoreBytes:   16 << 20,
		RETableEntries: 2 << 20,
		RESampleBits:   3,
		PacketSizeIP:   64,
		PacketSizeVPN:  768,
		PacketSizeRE:   1024,
		TrafficFlows:   100000,
		Buffers:        4096,
		SynRegionBytes: 12 << 20,
		SynAccesses:    32,
	}
}

// Small returns reduced parameters for unit tests: every structure keeps
// its role (trie deeper than one level, flow table bigger than caches in
// the test platform, firewall fitting L2) at a fraction of the setup cost.
func Small() Params {
	return Params{
		Routes:         4000,
		NetFlowEntries: 2048,
		FirewallRules:  400,
		REStoreBytes:   1 << 20,
		RETableEntries: 1 << 14,
		RESampleBits:   3,
		PacketSizeIP:   64,
		PacketSizeVPN:  256,
		PacketSizeRE:   512,
		TrafficFlows:   4096,
		Buffers:        256,
		SynRegionBytes: 1 << 20,
		SynAccesses:    16,
	}
}

// Instance is one constructed flow ready to attach to a core.
type Instance struct {
	Type     FlowType
	Source   hw.PacketSource
	Pipeline *click.Pipeline   // nil for raw synthetic sources
	Control  *elements.Control // non-nil when built with a control element

	// State records where every structure the flow allocated lives in
	// simulated memory: one binding per element, with the pipeline stage
	// it executes in. This is what makes application state a placeable
	// resource — the runtime reads it to know which NUMA domain holds a
	// flow's tables, what migrating them would cost, and which stage of a
	// service chain owns which span.
	State []StateBinding
}

// StateBinding locates one element's simulated state.
type StateBinding struct {
	Element string // element (or structure) name the state belongs to
	Stage   int    // pipeline stage the element executes in
	Base    hw.Addr
	Size    uint64
	// Source marks the build-time source's allocations (packet buffers,
	// RX descriptors). Under the concurrent runtime the source is
	// replaced by the worker's receive ring, so these bytes are dead
	// weight there: excluded from live footprints and never migrated.
	Source bool
}

// Domain returns the NUMA domain the binding's memory belongs to.
func (b StateBinding) Domain() int { return hw.DomainOf(b.Base) }

// StateBindings returns the instance's live (non-source) state bindings
// for one stage, or for all stages when stage < 0.
func (i *Instance) StateBindings(stage int) []StateBinding {
	var out []StateBinding
	for _, b := range i.State {
		if b.Source || (stage >= 0 && b.Stage != stage) {
			continue
		}
		out = append(out, b)
	}
	return out
}

// StateBytes returns the live state footprint in bytes for one stage, or
// for all stages when stage < 0 (source allocations excluded).
func (i *Instance) StateBytes(stage int) uint64 {
	var n uint64
	for _, b := range i.StateBindings(stage) {
		n += b.Size
	}
	return n
}

// PacketSize returns the wire size of the packets generated for flow
// type t.
func (p Params) PacketSize(t FlowType) int {
	if cf, ok := p.Custom[t]; ok && cf.PacketSize > 0 {
		return cf.PacketSize
	}
	switch t {
	case VPN:
		return p.PacketSizeVPN
	case RE:
		return p.PacketSizeRE
	default:
		if p.PacketSizeIP > 0 {
			return p.PacketSizeIP
		}
		return trafficgen.MinPacketSize
	}
}

// Config renders the Click configuration text for flow type t. SYN types
// have no Click pipeline and return "".
func (p Params) Config(t FlowType, seed uint64) string {
	if t == SYN || t == SYNMAX {
		return ""
	}
	if cf, ok := p.Custom[t]; ok {
		return cf.Config
	}
	var b strings.Builder
	size := p.PacketSizeIP
	switch t {
	case VPN:
		size = p.PacketSizeVPN
	case RE:
		size = p.PacketSizeRE
	}
	fmt.Fprintf(&b, "src :: FromDevice(SIZE %d, SEED %d, FLOWS %d, BUFFERS %d);\n",
		size, seed, p.TrafficFlows, p.Buffers)
	b.WriteString("src -> CheckIPHeader")
	fmt.Fprintf(&b, " -> RadixIPLookup(ROUTES %d, SEED %d)", p.Routes, seed^0x5eed)
	b.WriteString(" -> DecIPTTL")
	if t != IP {
		fmt.Fprintf(&b, " -> NetFlow(ENTRIES %d)", p.NetFlowEntries)
	}
	switch t {
	case FW:
		fmt.Fprintf(&b, " -> IPFilter(RULES %d, SEED %d)", p.FirewallRules, seed^0xf11e)
	case RE:
		fmt.Fprintf(&b, " -> RedundancyElim(STORE %d, ENTRIES %d, SAMPLEBITS %d)",
			p.REStoreBytes, p.RETableEntries, p.RESampleBits)
	case VPN:
		fmt.Fprintf(&b, " -> AESEncrypt(OUTBUFS %d)", p.Buffers)
	}
	b.WriteString(" -> ToDevice;\n")
	return b.String()
}

// Spec is what one flow declaration asks the builder for: the fields
// core.FlowSpec and runtime.AppSpec share beyond placement and traffic.
type Spec struct {
	Type FlowType
	Seed uint64 // all of the flow's randomness derives from it
	// SynCompute is a SYN flow's compute cycles between accesses (ignored
	// for other types; SYN_MAX forces 0).
	SynCompute int
	// Control inserts a Control element at the head of the pipeline
	// (Section 4's aggressiveness-containment knob).
	Control bool
	// HiddenTrigger, when positive, builds the Section 4 adversarial flow:
	// it profiles like FW but, after that many packets, starts performing
	// SYN_MAX-like memory accesses. It implies a Control element, so the
	// administrator's throttle has something to act on.
	HiddenTrigger uint64
}

// Build constructs flow type t with per-flow state allocated from arena
// (the flow's local NUMA domain) and all randomness derived from seed. A
// bare SYN flow gets a moderate compute gap; sweeps set Spec.SynCompute.
func (p Params) Build(t FlowType, arena *mem.Arena, seed uint64) (*Instance, error) {
	return p.BuildSpec(Spec{Type: t, Seed: seed, SynCompute: 200}, func(int) *mem.Arena { return arena })
}

// BuildSpec constructs the flow s declares, each pipeline stage's state
// allocated from arenaAt(stage) — the concurrent runtime passes the
// arena of the worker that will run the stage, so a cut graph keeps
// every stage's tables next to its core instead of piling them all into
// stage 0's domain; unstaged flows allocate everything from arenaAt(0).
// It is the one place that decides which kind of flow a declaration
// builds, so the deterministic engine and the runtime cannot disagree.
func (p Params) BuildSpec(s Spec, arenaAt func(stage int) *mem.Arena) (*Instance, error) {
	if s.HiddenTrigger > 0 && s.Type != FW {
		// The aggressor is an FW pipeline by construction: any other type
		// would be reported, profiled and predicted as itself while
		// running FW.
		return nil, fmt.Errorf("apps: a hidden-trigger aggressor is an %s flow; type %s cannot carry HIDDEN_TRIGGER", FW, s.Type)
	}
	if !s.Type.Synthetic() {
		var ctl *elements.Control
		if s.Control || s.HiddenTrigger > 0 {
			ctl = elements.NewControl(0)
		}
		return p.build(s.Type, arenaAt, s.Seed, ctl, s.HiddenTrigger)
	}
	if s.Control {
		return nil, fmt.Errorf("apps: SYN flows have no pipeline for a control element")
	}
	cfg := synth.Config{Seed: s.Seed, RegionBytes: p.SynRegionBytes, AccessesPerPacket: p.SynAccesses}
	if s.Type == SYN {
		cfg.ComputePerAccess = s.SynCompute
	}
	tr := &arenaTracker{}
	arena := tr.track(arenaAt(0))
	defer arena.SetLabel(arena.SetLabel(string(s.Type)))
	return &Instance{Type: s.Type, Source: synth.NewSource(arena, cfg), State: tr.collect(nil, "")}, nil
}

// arenaTracker records which arenas a build allocated from (and where
// each one's binding record stood beforehand), so the build can collect
// exactly its own bindings afterwards.
type arenaTracker struct {
	uses []struct {
		a    *mem.Arena
		mark int
	}
	seen map[*mem.Arena]bool
}

func (tr *arenaTracker) track(a *mem.Arena) *mem.Arena {
	if a == nil || tr.seen[a] {
		return a
	}
	if tr.seen == nil {
		tr.seen = map[*mem.Arena]bool{}
	}
	tr.seen[a] = true
	tr.uses = append(tr.uses, struct {
		a    *mem.Arena
		mark int
	}{a, a.Mark()})
	return a
}

// collect turns the tracked arenas' new bindings into the instance's
// state record. stageOf maps element names to stages (nil for unstaged
// builds); srcName marks the build-time source's allocations.
func (tr *arenaTracker) collect(stageOf map[string]int, srcName string) []StateBinding {
	var out []StateBinding
	for _, u := range tr.uses {
		for _, b := range u.a.BindingsSince(u.mark) {
			out = append(out, StateBinding{
				Element: b.Label,
				Stage:   stageOf[b.Label],
				Base:    b.Base,
				Size:    b.Size,
				Source:  srcName != "" && b.Label == srcName,
			})
		}
	}
	return out
}

// build constructs a pipeline flow (builtin or custom graph), optionally
// with a Control at its head and the hidden aggressor before its sink.
func (p Params) build(t FlowType, arenaAt func(int) *mem.Arena, seed uint64, ctl *elements.Control, hiddenTrigger uint64) (*Instance, error) {
	tr := &arenaTracker{}
	arena := tr.track(arenaAt(0))
	switch t {
	case IP, MON, FW, RE, VPN:
	default:
		if _, ok := p.Custom[t]; !ok {
			return nil, fmt.Errorf("apps: unknown flow type %q", t)
		}
	}
	env := &click.Env{Arena: arena, Seed: seed, RxBatch: p.RxBatch,
		ArenaAt: func(s int) *mem.Arena { return tr.track(arenaAt(s)) }}
	pl, err := click.ParseConfig(env, string(t), p.Config(t, seed))
	if err != nil {
		return nil, fmt.Errorf("apps: building %s: %w", t, err)
	}
	if ctl != nil {
		pl.PushFront("Control", ctl)
	}
	if hiddenTrigger > 0 {
		// The Section 4 adversarial element: SYN_MAX-like accesses after
		// the trigger. Since each FW packet takes far longer than a SYN
		// packet, matching SYN_MAX's per-second memory pressure requires
		// proportionally more accesses per packet.
		old := arena.SetLabel("hidden_aggressor")
		aggr := synth.NewElement(arena, synth.Config{
			Seed:              seed ^ 0xa66,
			RegionBytes:       p.SynRegionBytes,
			AccessesPerPacket: p.SynAccesses * 16,
		}, hiddenTrigger)
		arena.SetLabel(old)
		if err := pl.InsertBefore("ToDevice", "Syn", aggr); err != nil {
			return nil, err
		}
	}
	// Every node carries its stage: the graph's own from click.Parse, a
	// Control at the head stage 0 with the rest of the receive path.
	stageOf := make(map[string]int, len(pl.Nodes()))
	for _, n := range pl.Nodes() {
		stageOf[n.Name] = n.Stage
	}
	return &Instance{
		Type: t, Source: pl, Pipeline: pl, Control: ctl,
		State: tr.collect(stageOf, pl.SourceName()),
	}, nil
}

// Stages returns how many pipeline stages flow type t is cut into — the
// number of workers one replica occupies under the concurrent runtime.
// Builtins and custom flows without a `stage N:` statement run as a
// single stage (as does a configuration that does not parse: building it
// reports why).
func (p Params) Stages(t FlowType) int {
	if cf, ok := p.Custom[t]; ok {
		if g, err := click.Parse(cf.Config); err == nil {
			return g.NumStages()
		}
	}
	return 1
}

// ParseFlowType converts a string such as "MON" or "syn_max" to a
// FlowType.
func ParseFlowType(s string) (FlowType, error) {
	switch strings.ToUpper(s) {
	case "IP":
		return IP, nil
	case "MON":
		return MON, nil
	case "FW":
		return FW, nil
	case "RE":
		return RE, nil
	case "VPN":
		return VPN, nil
	case "SYN":
		return SYN, nil
	case "SYN_MAX", "SYNMAX":
		return SYNMAX, nil
	}
	return "", fmt.Errorf("apps: unknown flow type %q", s)
}
