package runtime

import (
	"maps"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/exp"
	"pktpredict/internal/hw"
	"pktpredict/internal/obs"
)

// snapshotFamily returns a family's series from a registry snapshot,
// nil when the family registered no series.
func snapshotFamily(snap obs.Snapshot, name string) *obs.FamilySnapshot {
	for i := range snap.Families {
		if snap.Families[i].Name == name {
			return &snap.Families[i]
		}
	}
	return nil
}

func labelIndex(f *obs.FamilySnapshot, label string) int {
	for i, l := range f.Labels {
		if l == label {
			return i
		}
	}
	return -1
}

// TestElementCyclesReconcileWorkerTotals is the acceptance check for
// per-element attribution: summed across every element (including the
// overhead slot), each worker's element cycle counter must reconcile
// with that worker's executed-cycle hardware counter within 1% — no
// work escapes attribution and none is double-counted.
func TestElementCyclesReconcileWorkerTotals(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig([]AppSpec{
		{Name: "ipfwd", Type: apps.IP, Workers: 2},
		{Name: "mon", Type: apps.MON, Workers: 1},
	})
	cfg.Metrics = reg
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)

	snap := reg.Snapshot()
	ef := snapshotFamily(snap, "dataplane_element_cycles_total")
	hf := snapshotFamily(snap, "dataplane_worker_hw_total")
	if ef == nil || hf == nil {
		t.Fatal("element or hw counter family missing from snapshot")
	}
	ewi := labelIndex(ef, "worker")
	eei := labelIndex(ef, "element")
	hwi := labelIndex(hf, "worker")
	hci := labelIndex(hf, "counter")
	if ewi < 0 || eei < 0 || hwi < 0 || hci < 0 {
		t.Fatalf("missing labels: element family %v, hw family %v", ef.Labels, hf.Labels)
	}

	elemByWorker := map[string]float64{}
	sawOverhead := false
	for _, s := range ef.Series {
		elemByWorker[s.LabelValues[ewi]] += s.Value
		if s.LabelValues[eei] == "overhead" {
			sawOverhead = true
		}
	}
	if !sawOverhead {
		t.Fatal("no overhead-slot series: source pulls and ring work went unattributed")
	}
	cycByWorker := map[string]float64{}
	for _, s := range hf.Series {
		if s.LabelValues[hci] == "cycles" {
			cycByWorker[s.LabelValues[hwi]] += s.Value
		}
	}
	checked := 0
	for w, cyc := range cycByWorker {
		if cyc == 0 {
			continue
		}
		checked++
		got := elemByWorker[w]
		if diff := (got - cyc) / cyc; diff > 0.01 || diff < -0.01 {
			t.Errorf("worker %s: element cycles %.0f vs core cycles %.0f (%.2f%% off)",
				w, got, cyc, diff*100)
		}
	}
	if checked == 0 {
		t.Fatal("no worker accrued cycles")
	}

	// The per-packet gauges exist and are positive for a real element.
	gf := snapshotFamily(snap, "dataplane_element_cycles_per_packet")
	if gf == nil || len(gf.Series) == 0 {
		t.Fatal("per-packet element gauge family empty")
	}
	positive := false
	for _, s := range gf.Series {
		if s.Value > 0 {
			positive = true
		}
	}
	if !positive {
		t.Fatal("every element cycles-per-packet gauge is zero")
	}
}

// TestElementBaselinesFromSolo: the offline side of drift detection —
// a solo runtime run yields per-packet baselines for every pipeline
// element plus the overhead slot, all positive for elements that do
// real work.
func TestElementBaselinesFromSolo(t *testing.T) {
	base := testConfig(nil)
	elems, err := soloElementBaselines(base.Cfg, base.Params, apps.IP, base.Warmup, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) == 0 {
		t.Fatal("solo run produced no element baselines")
	}
	if _, ok := elems["overhead"]; !ok {
		t.Fatalf("baselines missing the overhead slot: %v", elems)
	}
	var anyRefs bool
	for name, b := range elems {
		if b.CyclesPerPacket < 0 || b.RefsPerPacket < 0 {
			t.Fatalf("element %s has negative baseline %+v", name, b)
		}
		if b.RefsPerPacket > 0 {
			anyRefs = true
		}
	}
	if !anyRefs {
		t.Fatal("no element issued L3 references in the solo run")
	}
}

// engineElementBaselines is soloElementBaselines measured on the
// deterministic engine's solo run instead: the pipeline's nodes numbered
// as buildFlow numbers them (slot i+1, the overhead in slot 0), a table of
// cells on core 0, and the cells' growth over the window per packet.
func engineElementBaselines(t *testing.T, s exp.Scale, typ apps.FlowType) map[string]ElemBaseline {
	t.Helper()
	res, err := core.Scenario{Cfg: s.Cfg, Params: s.Params,
		Flows: []core.FlowSpec{{Type: typ, Core: 0, Domain: 0, Seed: core.SeedFor(typ, 0)}}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	nodes := res.Instances[0].Pipeline.Nodes()
	for i, n := range nodes {
		n.Elem = uint16(i + 1)
	}
	cells := make([]hw.ElemCell, len(nodes)+1)
	res.Engine.Platform.Cores[0].SetElemTable(cells)
	before, after := make([]hw.ElemCost, len(cells)), make([]hw.ElemCost, len(cells))
	res.Engine.Measure(s.Warmup)
	hw.CopyCosts(before, cells)
	pkts := float64(res.Engine.Measure(s.Window)[0].Raw.Packets)
	hw.CopyCosts(after, cells)
	out := map[string]ElemBaseline{}
	for i := range cells {
		name := overheadElem
		if i > 0 {
			name = nodes[i-1].Name
		}
		d := after[i].Sub(before[i])
		out[name] = ElemBaseline{CyclesPerPacket: float64(d.Cycles) / pkts, RefsPerPacket: float64(d.L3Refs) / pkts}
	}
	return out
}

// TestElementBaselinesMatchEngine is the oracle between the two executors
// at element grain (ROADMAP item 10(a)): for every builtin flow type, the
// runtime's solo element baselines name the same elements as the engine's
// solo run, and every element the drift detector weighs (at least
// driftBaseFloor refs/packet) costs the same on both within 5 %, in L3
// references and in cycles per packet. The residue is layout: the
// runtime's private state domains and per-worker receive pool put the
// flow's lines in other cache sets (docs/ARCHITECTURE.md). At quick scale
// the widest gap is VPN's RadixIPLookup, 3.7 %.
func TestElementBaselinesMatchEngine(t *testing.T) {
	s := exp.Quick()
	for _, typ := range []apps.FlowType{apps.IP, apps.MON, apps.FW, apps.RE, apps.VPN} {
		rt, err := soloElementBaselines(s.Cfg, s.Params, typ, s.Warmup, s.Window)
		if err != nil {
			t.Fatal(err)
		}
		eng := engineElementBaselines(t, s, typ)
		names := slices.Sorted(maps.Keys(rt))
		if engNames := slices.Sorted(maps.Keys(eng)); !slices.Equal(names, engNames) {
			t.Fatalf("%s: runtime elements %v, engine elements %v", typ, names, engNames)
		}
		for _, name := range names {
			r, e := rt[name], eng[name]
			if max(r.RefsPerPacket, e.RefsPerPacket) < driftBaseFloor {
				continue
			}
			for _, c := range []struct {
				what    string
				rt, eng float64
			}{{"refs/pkt", r.RefsPerPacket, e.RefsPerPacket}, {"cycles/pkt", r.CyclesPerPacket, e.CyclesPerPacket}} {
				if math.Abs(c.rt-c.eng) > 0.05*c.eng {
					t.Errorf("%s %s: runtime %.3f %s, engine %.3f: more than 5 %% apart", typ, name, c.rt, c.what, c.eng)
				}
			}
		}
	}
}

// TestMetricNameConventions lints every registered family on a fully
// featured runtime (SLO app, staged chain, profiles): Prometheus-style
// names, counters ending in _total, and no gauge or histogram
// masquerading as one.
func TestMetricNameConventions(t *testing.T) {
	params := withCustom(apps.Small(), "MONC", monStyleGraph(apps.Small()), map[string]int{"nf": 1})
	reg := obs.NewRegistry()
	cfg := testConfig([]AppSpec{
		{Name: "ipfwd", Type: apps.IP, Workers: 1, SLOP99US: 50},
		{Name: "monc", Type: "MONC", Workers: 1},
	})
	cfg.Params = params
	cps := testCfg().CoresPerSocket
	cfg.Cores = []int{0, 1, cps}
	cfg.Metrics = reg
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(0.002); err != nil {
		t.Fatal(err)
	}

	nameRe := regexp.MustCompile(`^dataplane_[a-z][a-z0-9_]*$`)
	snap := reg.Snapshot()
	if len(snap.Families) == 0 {
		t.Fatal("registry is empty")
	}
	for _, f := range snap.Families {
		if !nameRe.MatchString(f.Name) {
			t.Errorf("family %q does not match %s", f.Name, nameRe)
		}
		if f.Help == "" {
			t.Errorf("family %q has no help string", f.Name)
		}
		total := strings.HasSuffix(f.Name, "_total")
		switch f.Kind {
		case obs.KindCounter:
			if !total {
				t.Errorf("counter %q must end in _total", f.Name)
			}
		case obs.KindGauge:
			if total {
				t.Errorf("gauge %q must not end in _total", f.Name)
			}
		default:
			t.Errorf("family %q has unknown kind %q", f.Name, f.Kind)
		}
	}
}
