package runtime

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/hw"
)

// testCfg is the quick-scale platform: default topology, caches shrunk
// so working sets exceed the shared cache at apps.Small sizes.
func testCfg() hw.Config {
	cfg := hw.DefaultConfig()
	cfg.L1D = hw.CacheGeom{SizeBytes: 4 << 10, Ways: 4}
	cfg.L2 = hw.CacheGeom{SizeBytes: 32 << 10, Ways: 8}
	cfg.L3 = hw.CacheGeom{SizeBytes: 1 << 20, Ways: 16}
	return cfg
}

func testConfig(appsSpec []AppSpec) Config {
	return Config{
		Cfg:           testCfg(),
		Params:        apps.Small(),
		Apps:          appsSpec,
		QuantumCycles: 100_000,
		ControlEvery:  4,
		Warmup:        0.0003,
		Scenario:      "test",
	}
}

// soloStats measures a flow type's solo profile on the deterministic
// engine at test scale, the offline step the runtime's mechanisms assume.
func soloStats(t *testing.T, typ apps.FlowType, params apps.Params) hw.FlowStats {
	t.Helper()
	sc := core.Scenario{
		Cfg:    testCfg(),
		Params: params,
		Flows:  []core.FlowSpec{{Type: typ, Core: 0, Domain: 0, Seed: core.SeedFor(typ, 0)}},
		Warmup: 0.0005,
		Window: 0.002,
	}
	stats, err := sc.Run()
	if err != nil {
		t.Fatalf("solo %s: %v", typ, err)
	}
	return stats[0]
}

func TestRuntimeMixedSaturating(t *testing.T) {
	cfg := testConfig([]AppSpec{
		{Name: "ipfwd", Type: apps.IP, Workers: 2},
		{Name: "mon", Type: apps.MON, Workers: 2},
	})
	wins := CaptureWindows(&cfg)
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workers) != 4 {
		t.Fatalf("workers = %d, want 4", len(rep.Workers))
	}
	for _, w := range rep.Workers {
		if w.Packets == 0 || w.PPS <= 0 {
			t.Fatalf("worker %d idle under saturating load: %+v", w.Worker, w)
		}
		if w.BatchOccupancy <= 0 || w.BatchOccupancy > 1 {
			t.Fatalf("worker %d batch occupancy %v outside (0,1]", w.Worker, w.BatchOccupancy)
		}
		if w.RefsPerSec <= 0 {
			t.Fatalf("worker %d reports no memory references", w.Worker)
		}
	}
	for _, a := range rep.Apps {
		if a.Processed == 0 {
			t.Fatalf("app %s processed nothing", a.Name)
		}
		// Conservation: measurement-window enqueues and processing may
		// each lead the other by at most the rings' total backlog (the
		// counters reset at warmup end while rings keep their contents).
		slack := int64(a.Workers) * 2 * 512 // default ring capacity
		if diff := int64(a.Enqueued) - int64(a.Processed); diff > slack || diff < -slack {
			t.Fatalf("app %s: enqueued %d vs processed %d exceeds ring backlog bound %d",
				a.Name, a.Enqueued, a.Processed, slack)
		}
		if err := a.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	}
	if len(wins.Samples) == 0 {
		t.Fatal("no control samples recorded")
	}
	last := wins.Latest()
	if len(last.Workers) != 4 {
		t.Fatalf("latest sample has %d workers", len(last.Workers))
	}
}

func TestRuntimeRSSShardsAcrossReplicas(t *testing.T) {
	cfg := testConfig([]AppSpec{{Name: "mon", Type: apps.MON, Workers: 3}})
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range rep.Workers {
		if w.Packets == 0 {
			t.Fatalf("replica on worker %d received no RSS share", w.Worker)
		}
	}
}

func TestRuntimeRateLimitedDelivery(t *testing.T) {
	// Offer well under capacity: everything must be delivered, nothing
	// tail-dropped, observed throughput ≈ offered rate.
	const rate = 200_000 // pps, far below one core's MON capacity
	cfg := testConfig([]AppSpec{{Name: "mon", Type: apps.MON, Workers: 1, Rate: rate}})
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Apps[0]
	if a.NICDrops != 0 {
		t.Fatalf("tail drops at 20%% load: %d", a.NICDrops)
	}
	if a.ObservedPPS < rate*0.8 || a.ObservedPPS > rate*1.2 {
		t.Fatalf("observed %0.f pps, offered %d", a.ObservedPPS, rate)
	}
}

func TestRuntimeBurstOverloadDrops(t *testing.T) {
	cfg := testConfig([]AppSpec{
		// 40M pps offered in bursts is far beyond a single VPN worker.
		{Name: "vpn", Type: apps.VPN, Workers: 1, Rate: 40e6, BurstOn: 3, BurstOff: 3},
	})
	cfg.RingSize = 64
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Apps[0]
	if a.NICDrops == 0 {
		t.Fatal("burst overload produced no tail drops")
	}
	if a.Processed == 0 {
		t.Fatal("burst overload processed nothing")
	}
	if a.LossRate <= 0 || a.LossRate >= 1 {
		t.Fatalf("loss rate %v outside (0,1)", a.LossRate)
	}
	checkConservation(t, rep)
}

func TestRuntimeAdmissionContainsHiddenAggressor(t *testing.T) {
	fwSolo := soloStats(t, apps.FW, apps.Small())
	cfg := testConfig([]AppSpec{
		{Name: "mon", Type: apps.MON, Workers: 1},
		{Name: "rogue", Type: apps.FW, Workers: 1, HiddenTrigger: 300},
	})
	cfg.Admission = true
	cfg.Profiles = map[apps.FlowType]FlowProfile{
		apps.FW: {SoloPPS: fwSolo.Throughput(), SoloRefsPerSec: fwSolo.L3RefsPerSec()},
	}
	wins := CaptureWindows(&cfg)
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.008)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ThrottleEvents == 0 {
		t.Fatal("admission control never engaged against the hidden aggressor")
	}
	// The rogue's control element must carry a positive delay in at
	// least one recorded sample.
	sawDelay := false
	for _, cs := range wins.Samples {
		for _, w := range cs.Workers {
			if w.App == "rogue" && w.DelayCycles > 0 {
				sawDelay = true
			}
		}
	}
	if !sawDelay {
		t.Fatal("no control sample shows a throttle delay on the rogue flow")
	}
}

func TestRuntimeReplacementSeparatesThrashers(t *testing.T) {
	// The thrasher keeps its region at half the L3 (the regime where a
	// SYN_MAX stays cache-resident and maximally aggressive next to a
	// victim), matching the shipped thrash scenario.
	params := apps.Small()
	params.SynRegionBytes = testCfg().L3.SizeBytes / 2
	monSolo := soloStats(t, apps.MON, params)
	synSolo := soloStats(t, apps.SYNMAX, params)
	monRefs := monSolo.L3RefsPerSec()
	synRefs := synSolo.L3RefsPerSec()
	if synRefs < 4*monRefs {
		t.Fatalf("test premise broken: SYN_MAX refs/sec %.0f not ≫ MON %.0f", synRefs, monRefs)
	}
	// Curves anchored to the measured rates: MON suffers badly once
	// competition rises beyond what a co-located MON generates, and a
	// SYN_MAX neighbour observably generates several times that even
	// while contended; SYN_MAX itself is immune.
	profiles := map[apps.FlowType]FlowProfile{
		apps.MON: {
			SoloPPS: monSolo.Throughput(), SoloRefsPerSec: monRefs,
			Curve: core.Curve{Target: apps.MON, Points: []core.CurvePoint{
				{CompetingRefsPerSec: 0, Drop: 0},
				{CompetingRefsPerSec: monRefs, Drop: 0.02},
				{CompetingRefsPerSec: synRefs / 4, Drop: 0.30},
				{CompetingRefsPerSec: 2 * synRefs, Drop: 0.45},
			}},
		},
		apps.SYNMAX: {
			SoloPPS: synSolo.Throughput(), SoloRefsPerSec: synRefs,
			Curve: core.Curve{Target: apps.SYNMAX, Points: []core.CurvePoint{
				{CompetingRefsPerSec: 0, Drop: 0},
				{CompetingRefsPerSec: 2 * synRefs, Drop: 0.02},
			}},
		},
	}
	cps := testCfg().CoresPerSocket
	cfg := testConfig([]AppSpec{
		{Name: "mon-a", Type: apps.MON, Workers: 1},
		{Name: "thrash-a", Type: apps.SYNMAX, Workers: 1},
		{Name: "mon-b", Type: apps.MON, Workers: 1},
		{Name: "thrash-b", Type: apps.SYNMAX, Workers: 1},
	})
	cfg.Params = params
	cfg.Cores = []int{0, 1, cps, cps + 1}
	cfg.Profiles = profiles
	cfg.DropThreshold = 0.08
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.008)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) == 0 {
		t.Fatal("re-placement never engaged on the pathological placement")
	}
	// Final placement: the two MON flows must share a socket, the two
	// SYN_MAX flows the other.
	monSock, synSock := -1, -1
	for _, w := range rep.Workers {
		switch w.Type {
		case apps.MON:
			if monSock == -1 {
				monSock = w.Socket
			} else if w.Socket != monSock {
				t.Fatalf("MON flows still split across sockets: %+v", rep.Workers)
			}
		case apps.SYNMAX:
			if synSock == -1 {
				synSock = w.Socket
			} else if w.Socket != synSock {
				t.Fatalf("SYN_MAX flows still split across sockets: %+v", rep.Workers)
			}
		}
	}
	if monSock == synSock {
		t.Fatalf("victims and thrashers share socket %d", monSock)
	}
	// Convergence, not flapping: a second and third swap may refine, but
	// the run must not thrash placements every control interval.
	if len(rep.Migrations) > 3 {
		t.Fatalf("placement flapping: %d migrations", len(rep.Migrations))
	}
	checkConservation(t, rep)
	// Migration attribution: a worker's Packets cover only its final
	// binding (per-binding baselines snapshot at swap time), so summed
	// under an app's label they can never exceed what the app's flows
	// actually processed — they did before the fix, because the whole
	// window's work was credited to whichever app held the last binding.
	perApp := map[string]uint64{}
	sawRebound := false
	for _, w := range rep.Workers {
		if w.TotalPackets < w.Packets {
			t.Fatalf("worker %d: total %d < bound %d", w.Worker, w.TotalPackets, w.Packets)
		}
		if w.TotalPackets > w.Packets {
			sawRebound = true
		}
		perApp[w.App] += w.Packets
	}
	if !sawRebound {
		t.Fatal("migrations recorded but no worker excludes pre-swap packets")
	}
	for _, a := range rep.Apps {
		if perApp[a.Name] > a.Processed {
			t.Fatalf("app %s: workers claim %d packets under its label, its flows processed %d",
				a.Name, perApp[a.Name], a.Processed)
		}
	}
}

func TestRuntimePacketCountMode(t *testing.T) {
	cfg := testConfig([]AppSpec{{Name: "ip", Type: apps.IP, Workers: 1}})
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.TotalProcessed(); got < 500 {
		t.Fatalf("processed %d packets, want ≥ 500", got)
	}
	// The one stop rule: the measured quanta that cover the duration.
	if want := int(math.Ceil(0.001 / cfg.Cfg.CyclesToSeconds(cfg.QuantumCycles))); rep.Quanta != want {
		t.Fatalf("ran %d measured quanta, want %d", rep.Quanta, want)
	}
}

func TestRuntimeRunOnce(t *testing.T) {
	cfg := testConfig([]AppSpec{{Name: "ip", Type: apps.IP, Workers: 1}})
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(0.001); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(0.001); err == nil {
		t.Fatal("second Run succeeded; runtimes must be single-use")
	}
}

// TestRunRejectsBadDuration: a duration that is not positive, not finite
// or longer than 2^31 quanta is an error naming it — it used to be
// clamped to one quantum, and 1e30 overflowed the quantum count. A
// positive duration shorter than a quantum still runs one.
func TestRunRejectsBadDuration(t *testing.T) {
	run := func(d float64) (*Report, error) {
		r, err := NewRuntime(testConfig([]AppSpec{{Name: "syn", Type: apps.SYN, Workers: 1}}))
		if err != nil {
			t.Fatal(err)
		}
		return r.Run(d)
	}
	for _, d := range []float64{-1, 0, math.NaN(), math.Inf(1), 1e30} {
		if _, err := run(d); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("duration %g s", d)) {
			t.Errorf("Run(%g): err = %v, want one naming the duration", d, err)
		}
	}
	if rep, err := run(1e-12); err != nil || rep.Quanta != 1 {
		t.Fatalf("Run(1e-12): %v, %v; want one quantum", rep, err)
	}
}

func TestNewRuntimeValidation(t *testing.T) {
	base := func() Config {
		return testConfig([]AppSpec{{Name: "ip", Type: apps.IP, Workers: 2}})
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string // in the error, when set
	}{
		{"no apps", func(c *Config) { c.Apps = nil }, ""},
		{"zero workers", func(c *Config) { c.Apps[0].Workers = 0 }, ""},
		{"unnamed app", func(c *Config) { c.Apps[0].Name = "" }, ""},
		{"core count mismatch", func(c *Config) { c.Cores = []int{0} }, ""},
		{"duplicate core", func(c *Config) { c.Cores = []int{3, 3} }, ""},
		{"core out of range", func(c *Config) { c.Cores = []int{0, 99} }, ""},
		{"rate fraction without profile", func(c *Config) { c.Apps[0].RateFraction = 0.5 }, ""},
		// Used to panic in NewRing on a replica-build goroutine.
		{"RingSize", func(c *Config) { c.RingSize = -5 }, "RingSize"},
		// Used to run, blending both apps' predictions, residual evidence
		// and dataplane_app_* series under the one name.
		{"duplicate app name", func(c *Config) {
			c.Apps = []AppSpec{{Name: "a", Type: apps.IP, Workers: 1}, {Name: "a", Type: apps.MON, Workers: 1}}
		}, `apps 0 and 1 are both named "a"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			_, err := NewRuntime(cfg)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not say %q", err, tc.want)
			}
		})
	}
}

// TestProfileFlowsQuick smoke-tests the offline profiling helper on the
// cheapest realistic type with a minimal sweep grid.
func TestProfileFlowsQuick(t *testing.T) {
	profiles, err := ProfileFlows(testCfg(), apps.Small(), 0.0005, 0.002,
		[]int{400, 0}, []apps.FlowType{apps.IP, apps.IP})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := profiles[apps.IP]
	if !ok {
		t.Fatal("no IP profile")
	}
	if p.SoloPPS <= 0 || p.SoloRefsPerSec <= 0 {
		t.Fatalf("degenerate profile: %+v", p)
	}
	if len(p.Curve.Points) < 3 {
		t.Fatalf("curve too sparse: %+v", p.Curve)
	}
	if p.Curve.Points[0].Drop != 0 {
		t.Fatalf("curve does not start at zero: %+v", p.Curve.Points[0])
	}
}
