package runtime

import (
	"fmt"
	"math"
	gort "runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pktpredict/internal/apps"
	"pktpredict/internal/click"
	"pktpredict/internal/core"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
)

// Short windows, a two-point grid of slow competitors and a three-core
// socket keep these tests cheap enough for -race -count=10 (the race
// detector slows the engine thirtyfold): what they check is
// order-independence, not curves.
const (
	profWarmup = 0.0001
	profWindow = 0.0003
)

var profGrid = []int{3200, 800}

func profCfg() hw.Config {
	cfg := testCfg()
	cfg.CoresPerSocket = 3
	return cfg
}

// atGOMAXPROCS runs f with GOMAXPROCS set to n, failing the test when f
// has not returned within the deadline — the only way a deadlock among
// the experiment slots can show.
func atGOMAXPROCS(t *testing.T, n int, deadline time.Duration, f func()) {
	t.Helper()
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(n))
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatalf("GOMAXPROCS %d: still running after %v", n, deadline)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameProfile compares two profiles by the bit pattern of every number.
func sameProfile(a, b FlowProfile) error {
	if !sameBits(a.SoloPPS, b.SoloPPS) || !sameBits(a.SoloRefsPerSec, b.SoloRefsPerSec) {
		return fmt.Errorf("solo rates %v/%v vs %v/%v", a.SoloPPS, a.SoloRefsPerSec, b.SoloPPS, b.SoloRefsPerSec)
	}
	if len(a.Curve.Points) != len(b.Curve.Points) || a.Curve.Target != b.Curve.Target {
		return fmt.Errorf("curves %s vs %s", a.Curve, b.Curve)
	}
	for i, p := range a.Curve.Points {
		if q := b.Curve.Points[i]; !sameBits(p.CompetingRefsPerSec, q.CompetingRefsPerSec) || !sameBits(p.Drop, q.Drop) {
			return fmt.Errorf("curve point %d: %+v vs %+v", i, p, q)
		}
	}
	if len(a.Elements) != len(b.Elements) {
		return fmt.Errorf("%d vs %d element baselines", len(a.Elements), len(b.Elements))
	}
	for name, x := range a.Elements {
		y, ok := b.Elements[name]
		if !ok || !sameBits(x.CyclesPerPacket, y.CyclesPerPacket) || !sameBits(x.RefsPerPacket, y.RefsPerPacket) {
			return fmt.Errorf("element %s: %+v vs %+v (present %v)", name, x, y, ok)
		}
	}
	return nil
}

// serialProfile assembles one type's profile the way the serial
// ProfileFlows did, from direct core.Scenario.Run calls in grid order
// and one element-baseline run, with no predictor in between.
func serialProfile(t *testing.T, cfg hw.Config, params apps.Params, typ apps.FlowType) FlowProfile {
	t.Helper()
	run := func(flows []core.FlowSpec) []hw.FlowStats {
		stats, err := core.Scenario{Cfg: cfg, Params: params, Flows: flows, Warmup: profWarmup, Window: profWindow}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	target := core.FlowSpec{Type: typ, Seed: core.SeedFor(typ, 0)}
	solo := run([]core.FlowSpec{target})[0]
	prof := FlowProfile{
		SoloPPS: solo.Throughput(), SoloRefsPerSec: solo.L3RefsPerSec(),
		Curve: core.Curve{Target: typ, Points: []core.CurvePoint{{}}},
	}
	for _, k := range profGrid {
		flows := []core.FlowSpec{target}
		for i := 1; i < cfg.CoresPerSocket; i++ {
			flows = append(flows, core.FlowSpec{Type: apps.SYN, Core: i, Seed: core.SeedFor(apps.SYN, i), SynCompute: k})
		}
		stats := run(flows)
		var competing float64
		for _, s := range stats[1:] {
			competing += s.L3RefsPerSec()
		}
		prof.Curve.Points = append(prof.Curve.Points, core.CurvePoint{
			CompetingRefsPerSec: competing, Drop: hw.PerformanceDrop(solo, stats[0])})
	}
	pts := prof.Curve.Points[1:]
	sort.Slice(pts, func(i, j int) bool { return pts[i].CompetingRefsPerSec < pts[j].CompetingRefsPerSec })
	if !typ.Synthetic() {
		elems, err := soloElementBaselines(cfg, params, typ, profWarmup, profWindow)
		if err != nil {
			t.Fatal(err)
		}
		prof.Elements = elems
	}
	return prof
}

// TestProfileFlowsBitIdenticalAcrossGOMAXPROCS: however many experiments
// run at once, and in whatever order they finish, ProfileFlows returns
// the serial order's numbers bit for bit.
func TestProfileFlowsBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	cfg, params := profCfg(), apps.Small()
	types := []apps.FlowType{apps.MON, apps.SYN, apps.IP, apps.MON}
	want := map[apps.FlowType]FlowProfile{}
	for _, typ := range types {
		want[typ] = serialProfile(t, cfg, params, typ)
	}
	for _, n := range []int{1, 2, 8} {
		atGOMAXPROCS(t, n, time.Minute, func() {
			got, err := ProfileFlows(cfg, params, profWarmup, profWindow, profGrid, types)
			if err != nil {
				t.Errorf("GOMAXPROCS %d: %v", n, err)
				return
			}
			if len(got) != len(want) {
				t.Errorf("GOMAXPROCS %d: %d profiles, want %d", n, len(got), len(want))
			}
			for typ, w := range want {
				if err := sameProfile(got[typ], w); err != nil {
					t.Errorf("GOMAXPROCS %d, %s differs from the serial reference: %v", n, typ, err)
				}
			}
		})
	}
}

// TestProfileFlowsErrorNamesLowestIndexFailure: a type that cannot be
// built fails its solo run, every sweep point and its baseline run; the
// error returned is the first of those in serial order, names the type,
// and is the same whatever finished first.
func TestProfileFlowsErrorNamesLowestIndexFailure(t *testing.T) {
	types := []apps.FlowType{apps.IP, "nosuchgraph", "alsomissing"}
	const want = `core: solo nosuchgraph: core: flow 0 (nosuchgraph): apps: unknown flow type "nosuchgraph"`
	for _, n := range []int{1, 8} {
		atGOMAXPROCS(t, n, time.Minute, func() {
			for range 2 {
				if _, err := ProfileFlows(profCfg(), apps.Small(), profWarmup, profWindow, profGrid, types); err == nil || err.Error() != want {
					t.Errorf("GOMAXPROCS %d: error %q, want %q", n, err, want)
				}
			}
		})
	}
}

// slotProbe is a pass-through element that reports every construction
// and every packet to a log, tagged with the arena it was built in. An
// engine scenario and a runtime each allocate from arenas of their own,
// so the arena identifies the leaf experiment, and the span between an
// arena's first and last event lies inside that experiment's life.
type slotProbe struct{ id *mem.Arena }

type probeLog struct {
	mu          sync.Mutex
	seq         int
	first, last map[*mem.Arena]int
}

func (l *probeLog) event(id *mem.Arena) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	if _, seen := l.first[id]; !seen {
		l.first[id] = l.seq
	}
	l.last[id] = l.seq
}

// reset empties the log and returns, for what it held, the number of
// experiments seen and the most whose spans overlapped.
func (l *probeLog) reset() (experiments, peak int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delta := make([]int, l.seq+2)
	for id, f := range l.first {
		delta[f]++
		delta[l.last[id]+1]--
	}
	live := 0
	for _, d := range delta {
		live += d
		peak = max(peak, live)
	}
	experiments = len(l.first)
	l.seq, l.first, l.last = 0, map[*mem.Arena]int{}, map[*mem.Arena]int{}
	return experiments, peak
}

var slotProbeLog = &probeLog{first: map[*mem.Arena]int{}, last: map[*mem.Arena]int{}}

func init() {
	click.Register("SlotProbe", nil, nil, func(env *click.Env, _ struct{}) (interface{}, error) {
		slotProbeLog.event(env.Arena)
		return &slotProbe{id: env.Arena}, nil
	})
}

func (p *slotProbe) Process(*click.Ctx, *click.Packet) click.Verdict {
	slotProbeLog.event(p.id)
	return click.Continue
}

// TestExperimentSlotsBounded: with more ProfileFlows calls in flight than
// there are slots — a cold sweep's PARALLEL points, each profiling its
// own platform — the experiments observed alive at once never exceed
// GOMAXPROCS, every call returns (a holder never waits for a slot), and
// a failed experiment gives its slot back.
func TestExperimentSlotsBounded(t *testing.T) {
	params := apps.Small()
	for _, name := range []string{"probed", "probed2"} {
		params = withCustom(params, name,
			"src :: FromDevice(SIZE 64, FLOWS 256, BUFFERS 64); src -> CheckIPHeader -> SlotProbe -> ToDevice;", nil)
	}
	types := []apps.FlowType{"probed", "probed2"}
	perCall := len(types) * (1 + len(profGrid) + 1) // solo, sweep points, baseline run
	const calls = 3
	for _, n := range []int{1, 2, 3} {
		atGOMAXPROCS(t, n, time.Minute, func() {
			slotProbeLog.reset()
			// A failing pass first: had it kept a slot, GOMAXPROCS 1 would hang.
			if _, err := ProfileFlows(profCfg(), params, profWarmup, profWindow, profGrid,
				[]apps.FlowType{"probed", "nosuchgraph"}); err == nil || !strings.Contains(err.Error(), "nosuchgraph") {
				t.Errorf("GOMAXPROCS %d: failing pass returned %v", n, err)
			}
			slotProbeLog.reset()
			var wg sync.WaitGroup
			for range calls {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := ProfileFlows(profCfg(), params, profWarmup, profWindow, profGrid, types); err != nil {
						t.Errorf("GOMAXPROCS %d: %v", n, err)
					}
				}()
			}
			wg.Wait()
			experiments, peak := slotProbeLog.reset()
			if experiments != calls*perCall {
				t.Errorf("GOMAXPROCS %d: the probe saw %d experiments, want %d", n, experiments, calls*perCall)
			}
			if peak > n || peak < 1 {
				t.Errorf("GOMAXPROCS %d: %d experiments were alive at once", n, peak)
			}
			t.Logf("GOMAXPROCS %d: %d experiments, at most %d alive at once", n, experiments, peak)
		})
	}
}

// BenchmarkProfileFlows times one profiling pass of the five realistic
// types at the test scale. Run it with -cpu 1,2: at -cpu 1 the fan-out
// degenerates to one experiment at a time and must cost what the serial
// pass did; beyond that it should scale with the host.
func BenchmarkProfileFlows(b *testing.B) {
	for b.Loop() {
		if _, err := ProfileFlows(testCfg(), apps.Small(), 0.0005, 0.002, []int{1600, 400, 100, 0}, apps.RealisticTypes); err != nil {
			b.Fatal(err)
		}
	}
}
