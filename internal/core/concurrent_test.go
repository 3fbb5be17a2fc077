package core

import (
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/click"
	"pktpredict/internal/hw"
)

// buildCount counts constructions of the CountBuild element: one per
// experiment that builds a flow type whose graph carries it.
var buildCount atomic.Int64

type countBuild struct{}

func (countBuild) Class() string                                   { return "CountBuild" }
func (countBuild) Process(*click.Ctx, *click.Packet) click.Verdict { return click.Continue }

func init() {
	click.Register("CountBuild", nil, nil, func(*click.Env, struct{}) (interface{}, error) {
		buildCount.Add(1)
		return countBuild{}, nil
	})
}

// countedPredictor profiles two custom types whose every build is
// counted. A three-core socket, two slow grid points and short windows
// keep it affordable under the race detector.
func countedPredictor() (*Predictor, []apps.FlowType) {
	params := apps.Small()
	params.Custom = map[apps.FlowType]apps.CustomFlow{}
	types := []apps.FlowType{"countedA", "countedB"}
	for _, t := range types {
		params.Custom[t] = apps.CustomFlow{PacketSize: 64,
			Config: "src :: FromDevice(SIZE 64, FLOWS 256, BUFFERS 64); src -> CheckIPHeader -> CountBuild -> ToDevice;"}
	}
	cfg := testCfg()
	cfg.CoresPerSocket = 3
	p := NewPredictor(cfg, params, 0.0001, 0.0003)
	p.SweepGrid = []int{3200, 800}
	return p, types
}

// profileAll asks p, in the order given, for everything it memoises
// about types and returns the answers keyed by what was asked.
func profileAll(t *testing.T, p *Predictor, types []apps.FlowType) map[string]any {
	out := map[string]any{}
	for _, typ := range types {
		solo, err := p.Solo(typ)
		curve, err2 := p.Curve(typ)
		if err != nil || err2 != nil {
			t.Errorf("%s: solo %v, curve %v", typ, err, err2)
		}
		out["solo "+string(typ)], out["curve "+string(typ)] = solo, curve
	}
	stats, sorted, err := p.MeasureMix(types) // one multiset, however the caller spells it
	if err != nil {
		t.Errorf("mix %v: %v", types, err)
	}
	out["mix stats"], out["mix order"] = stats, sorted
	return out
}

// TestPredictorConcurrentUse: goroutines asking one predictor for
// overlapping quantities all get the values a predictor used from one
// goroutine returns, and every memoised quantity is measured once.
func TestPredictorConcurrentUse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	serial, types := countedPredictor()
	buildCount.Store(0)
	want := profileAll(t, serial, types)
	// Each type is built by its solo run, each sweep point and the mix.
	perPredictor := int64(len(types) * (1 + len(serial.SweepGrid) + 1))
	if n := buildCount.Load(); n != perPredictor {
		t.Fatalf("serial use built the counted types %d times, want %d", n, perPredictor)
	}

	shared, _ := countedPredictor()
	buildCount.Store(0)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			order := types
			if g%2 == 1 {
				order = []apps.FlowType{types[1], types[0]}
			}
			got := profileAll(t, shared, order)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("goroutine %d got\n%v\nwant\n%v", g, got, want)
			}
		}()
	}
	wg.Wait()
	if n := buildCount.Load(); n != perPredictor {
		t.Errorf("eight concurrent users built the counted types %d times, want %d", n, perPredictor)
	}
	if liveExperiments != 0 {
		t.Errorf("%d experiment slots still held", liveExperiments)
	}
}

// TestReusedPlatformsMatchNew: a predictor's solo run and every sweep
// sample under each of the three competitor placements, measured on
// platforms its experiments pass on to each other, have the raw counters
// Scenario.Run gets for the same flows on new platforms; and the
// predictor keeps no more platforms than experiments can run at once.
func TestReusedPlatformsMatchNew(t *testing.T) {
	cfg := testCfg()
	cfg.CoresPerSocket = 3
	typ := apps.MON
	target := FlowSpec{Type: typ, Seed: SeedFor(typ, 0)}
	newPlatformRun := func(p *Predictor, flows []FlowSpec) []hw.FlowStats {
		res, err := Scenario{Cfg: p.Cfg, Params: p.Params, Flows: flows, Warmup: p.Warmup, Window: p.Window}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	// placed is competitor i's core and data domain under each mode.
	placed := map[ContentionMode]func(i int) (int, int){
		CacheOnly:   func(i int) (int, int) { return i, 1 },
		MemCtrlOnly: func(i int) (int, int) { return cfg.CoresPerSocket + i - 1, 0 },
		Both:        func(i int) (int, int) { return i, 0 },
	}
	for _, n := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
			p := NewPredictor(cfg, apps.Small(), 0.0001, 0.0003)
			p.SweepGrid = []int{3200, 1600, 800, 0}
			solo, err := p.Solo(typ)
			if err != nil {
				t.Fatal(err)
			}
			if want := newPlatformRun(p, []FlowSpec{target})[0]; solo != want {
				t.Errorf("GOMAXPROCS %d: solo %+v, on a new platform %+v", n, solo.Raw, want.Raw)
			}
			for _, m := range Modes {
				samples, err := p.sweep(typ, m)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]SweepSample, len(p.SweepGrid))
				for g, k := range p.SweepGrid {
					flows := []FlowSpec{target}
					for i := 1; i < cfg.CoresPerSocket; i++ {
						c, d := placed[m](i)
						flows = append(flows, FlowSpec{Type: apps.SYN, Core: c, Domain: d, Seed: SeedFor(apps.SYN, i), SynCompute: k})
					}
					stats := newPlatformRun(p, flows)
					want[g].Target = stats[0]
					for _, s := range stats[1:] {
						want[g].CompetingRefsPerSec += s.L3RefsPerSec()
					}
				}
				sort.Slice(want, func(i, j int) bool { return want[i].CompetingRefsPerSec < want[j].CompetingRefsPerSec })
				for i, s := range samples {
					if s != want[i] {
						t.Errorf("GOMAXPROCS %d, %s: sweep sample %d %+v, on a new platform %+v", n, m, i, s.Target.Raw, want[i].Target.Raw)
					}
				}
			}
			if free := p.freePlatforms(); free < 1 || free > n {
				t.Errorf("GOMAXPROCS %d: %d platforms on the free list, want 1..%d", n, free, n)
			}
		}()
	}
}

// TestSweepErrorNamesLowestIndexPoint: every grid point of an unbuildable
// type fails; the error is the first grid point's, names the type and the
// SYN compute value, and frees its slot, whatever GOMAXPROCS is.
func TestSweepErrorNamesLowestIndexPoint(t *testing.T) {
	const want = `core: sweep nosuchgraph @ SYN compute 1600: core: flow 0 (nosuchgraph): apps: unknown flow type "nosuchgraph"`
	for _, n := range []int{1, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
			p := testPredictor()
			for range 2 { // the second answer is the memoised one
				if _, err := p.Sweep("nosuchgraph"); err == nil || err.Error() != want {
					t.Errorf("GOMAXPROCS %d: Sweep error %q, want %q", n, err, want)
				}
			}
			if _, err := p.Curve("nosuchgraph"); err == nil || err.Error() != `core: solo nosuchgraph: core: flow 0 (nosuchgraph): apps: unknown flow type "nosuchgraph"` {
				t.Errorf("GOMAXPROCS %d: Curve error %q, want the solo run's", n, err)
			}
			if liveExperiments != 0 {
				t.Errorf("GOMAXPROCS %d: %d experiment slots still held after failures", n, liveExperiments)
			}
		}()
	}
}

// TestUnplaceableCoresAreErrors: a flow on a core the platform lacks, or
// on a core another flow already runs on, is a build error naming the
// flow, its type and the core — not a panic in hw.Engine.Attach, which
// under a sweep's fan-out would kill the process. A memctrl-placed sweep
// on a one-socket platform is such a build, and frees every slot.
func TestUnplaceableCoresAreErrors(t *testing.T) {
	cfg := testCfg()
	mon := func(core int) FlowSpec { return FlowSpec{Type: apps.MON, Core: core, Seed: 1} }
	for _, tc := range []struct {
		flows []FlowSpec
		want  string
	}{
		{[]FlowSpec{mon(cfg.TotalCores())}, "core: flow 0 (MON): core 12 is outside [0,12) or runs another flow"},
		{[]FlowSpec{mon(-1)}, "core: flow 0 (MON): core -1 is outside [0,12) or runs another flow"},
		{[]FlowSpec{mon(3), mon(3)}, "core: flow 1 (MON): core 3 is outside [0,12) or runs another flow"},
	} {
		if _, err := (Scenario{Cfg: cfg, Params: apps.Small(), Flows: tc.flows}).Build(); err == nil || err.Error() != tc.want {
			t.Errorf("Build(%+v): error %q, want %q", tc.flows, err, tc.want)
		}
	}

	cfg.Sockets, cfg.CoresPerSocket = 1, 3
	const want = `core: sweep MON under memctrl @ SYN compute 1600: core: flow 1 (SYN): core 3 is outside [0,3) or runs another flow`
	for _, n := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
			p := NewPredictor(cfg, apps.Small(), 0.0001, 0.0003)
			p.SweepGrid = []int{1600, 0}
			if _, err := p.CurveUnder(apps.MON, MemCtrlOnly); err == nil || err.Error() != want {
				t.Errorf("GOMAXPROCS %d: memctrl curve on one socket: error %q, want %q", n, err, want)
			}
			if _, err := p.CurveUnder(apps.MON, "l2"); err == nil || err.Error() != `core: unknown contention mode "l2"` {
				t.Errorf("GOMAXPROCS %d: unknown mode: error %q", n, err)
			}
			if liveExperiments != 0 {
				t.Errorf("GOMAXPROCS %d: %d experiment slots still held after failures", n, liveExperiments)
			}
		}()
	}
}
