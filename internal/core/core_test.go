package core

import (
	"math"
	"testing"
	"testing/quick"

	"pktpredict/internal/apps"
	"pktpredict/internal/hw"
)

// testCfg scales the platform down so unit tests run in milliseconds of
// wall time while keeping the cache-hierarchy structure.
func testCfg() hw.Config {
	cfg := hw.DefaultConfig()
	cfg.L1D = hw.CacheGeom{SizeBytes: 4 << 10, Ways: 4}
	cfg.L2 = hw.CacheGeom{SizeBytes: 32 << 10, Ways: 8}
	cfg.L3 = hw.CacheGeom{SizeBytes: 1 << 20, Ways: 16}
	return cfg
}

func testPredictor() *Predictor {
	p := NewPredictor(testCfg(), apps.Small(), 0.0005, 0.002)
	p.SweepGrid = []int{1600, 400, 100, 0}
	return p
}

func TestScenarioRunBasics(t *testing.T) {
	sc := Scenario{
		Cfg:    testCfg(),
		Params: apps.Small(),
		Flows: []FlowSpec{
			{Type: apps.MON, Core: 0, Domain: 0, Seed: 1},
			{Type: apps.FW, Core: 1, Domain: 0, Seed: 2},
		},
		Warmup: 0.0002,
		Window: 0.001,
	}
	stats, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats = %d flows", len(stats))
	}
	for i, st := range stats {
		if st.Raw.Packets == 0 {
			t.Fatalf("flow %d made no progress", i)
		}
	}
}

func TestScenarioEmptyFails(t *testing.T) {
	if _, err := (Scenario{Cfg: testCfg(), Params: apps.Small()}).Run(); err == nil {
		t.Fatal("empty scenario must fail")
	}
}

func TestScenarioDomainPlacement(t *testing.T) {
	// A flow with data in domain 1 running on socket 0 must produce
	// remote references.
	sc := Scenario{
		Cfg:    testCfg(),
		Params: apps.Small(),
		Flows:  []FlowSpec{{Type: apps.SYNMAX, Core: 0, Domain: 1, Seed: 3}},
		Warmup: 0.0001, Window: 0.0005,
	}
	stats, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Raw.RemoteRefs == 0 {
		t.Fatal("cross-domain flow produced no remote references")
	}
}

func TestSeedForStability(t *testing.T) {
	if SeedFor(apps.MON, 0) != SeedFor(apps.MON, 0) {
		t.Fatal("SeedFor not deterministic")
	}
	if SeedFor(apps.MON, 0) == SeedFor(apps.MON, 1) {
		t.Fatal("SeedFor must differ by index")
	}
	if SeedFor(apps.MON, 0) == SeedFor(apps.FW, 0) {
		t.Fatal("SeedFor must differ by type")
	}
}

func TestSoloMemoised(t *testing.T) {
	p := testPredictor()
	a, err := p.Solo(apps.IP)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Solo(apps.IP)
	if err != nil {
		t.Fatal(err)
	}
	if a.Raw != b.Raw {
		t.Fatal("memoised solo differs")
	}
	if a.Throughput() == 0 || a.L3RefsPerSec() == 0 {
		t.Fatal("solo profile empty")
	}
}

func TestCurveShape(t *testing.T) {
	p := testPredictor()
	c, err := p.Curve(apps.MON)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != len(p.SweepGrid)+1 {
		t.Fatalf("curve has %d points, want %d", len(c.Points), len(p.SweepGrid)+1)
	}
	if c.Points[0].CompetingRefsPerSec != 0 || c.Points[0].Drop != 0 {
		t.Fatal("curve must start at (0,0)")
	}
	// Competition levels must increase along the grid, and drop at the
	// hardest point must exceed drop at the lightest by a clear margin.
	last := c.Points[len(c.Points)-1]
	first := c.Points[1]
	if last.CompetingRefsPerSec <= first.CompetingRefsPerSec {
		t.Fatal("sweep did not ramp competition")
	}
	if last.Drop <= first.Drop {
		t.Fatalf("drop did not grow with competition: %.3f → %.3f", first.Drop, last.Drop)
	}
	if last.Drop <= 0.03 {
		t.Fatalf("max drop %.3f implausibly small; contention not manifesting", last.Drop)
	}
}

func TestCurveInterpolation(t *testing.T) {
	c := Curve{Points: []CurvePoint{{0, 0}, {100, 0.10}, {200, 0.20}}}
	cases := []struct{ x, want float64 }{
		{-5, 0}, {0, 0}, {50, 0.05}, {100, 0.10}, {150, 0.15}, {200, 0.20}, {500, 0.20},
	}
	for _, cse := range cases {
		if got := c.DropAt(cse.x); math.Abs(got-cse.want) > 1e-9 {
			t.Fatalf("DropAt(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if (Curve{}).DropAt(100) != 0 {
		t.Fatal("empty curve must predict 0")
	}
}

// Property: curve interpolation is monotone for monotone curves and
// always within [min, max] of the defining points.
func TestCurveInterpolationQuick(t *testing.T) {
	c := Curve{Points: []CurvePoint{{0, 0}, {50, 0.08}, {120, 0.18}, {300, 0.25}}}
	f := func(xRaw uint16) bool {
		x := float64(xRaw)
		d := c.DropAt(x)
		if d < 0 || d > 0.25 {
			return false
		}
		return c.DropAt(x+10) >= d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictMatchesMeasuredAtTestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("co-run measurement sweep")
	}
	p := testPredictor()
	target := apps.MON
	competitors := []apps.FlowType{apps.MON, apps.MON, apps.MON, apps.MON, apps.MON}

	pred, err := p.Predict(target, competitors)
	if err != nil {
		t.Fatal(err)
	}
	mix := append([]apps.FlowType{target}, competitors...)
	drops, _, err := p.MeasuredDrops(mix)
	if err != nil {
		t.Fatal(err)
	}
	measured := drops[0] // all MON: any slot works
	if diff := math.Abs(pred.Drop - measured); diff > 0.10 {
		t.Fatalf("prediction error %.1f%% (predicted %.1f%%, measured %.1f%%)",
			diff*100, pred.Drop*100, measured*100)
	}
}

func TestPredictionOrdersSensitivity(t *testing.T) {
	// MON must be predicted more sensitive than FW under the same heavy
	// competition — the paper's central sensitivity ordering.
	p := testPredictor()
	heavy := []apps.FlowType{apps.SYNMAX, apps.SYNMAX, apps.SYNMAX, apps.SYNMAX, apps.SYNMAX}
	pm, err := p.Predict(apps.MON, heavy)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := p.Predict(apps.FW, heavy)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Drop <= pf.Drop {
		t.Fatalf("MON predicted drop (%.3f) must exceed FW's (%.3f)", pm.Drop, pf.Drop)
	}
}

func TestMeasureMixMemoisedAndOrderInvariant(t *testing.T) {
	p := testPredictor()
	a, sortedA, err := p.MeasureMix([]apps.FlowType{apps.FW, apps.MON})
	if err != nil {
		t.Fatal(err)
	}
	b, sortedB, err := p.MeasureMix([]apps.FlowType{apps.MON, apps.FW})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 || len(b) != 2 || sortedA[0] != sortedB[0] {
		t.Fatal("mix results not canonicalised")
	}
	if a[0].Raw != b[0].Raw {
		t.Fatal("memoisation failed for permuted mix")
	}
}

func TestMeasureMixValidation(t *testing.T) {
	p := testPredictor()
	if _, _, err := p.MeasureMix(nil); err == nil {
		t.Fatal("empty mix must fail")
	}
	big := make([]apps.FlowType, 7)
	for i := range big {
		big[i] = apps.IP
	}
	if _, _, err := p.MeasureMix(big); err == nil {
		t.Fatal("7 flows must not fit a 6-core socket")
	}
}

// --- model ---

func TestEquation1(t *testing.T) {
	// With δ·κ·h = 1, drop = 1/2.
	if got := DropFromConversion(1e6, 1, 1e-6); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("drop = %v, want 0.5", got)
	}
	if DropFromConversion(0, 1, 1e-6) != 0 {
		t.Fatal("zero hits → zero drop")
	}
	// Paper's example: at 20M hits/sec and δ=43.75ns, worst-case drop is
	// ≈ 47%.
	got := WorstCaseDrop(20e6, DeltaSeconds)
	if got < 0.45 || got > 0.48 {
		t.Fatalf("WorstCaseDrop(20M) = %.3f, want ≈ 0.47", got)
	}
}

// Property: Equation 1 is monotone in every argument and bounded in [0,1).
func TestEquation1MonotoneQuick(t *testing.T) {
	f := func(h16, k16, d16 uint16) bool {
		h := float64(h16) * 1e3
		k := float64(k16) / 65535
		d := float64(d16) * 1e-9
		v := DropFromConversion(h, k, d)
		if v < 0 || v >= 1 {
			return false
		}
		return DropFromConversion(h*2, k, d) >= v &&
			DropFromConversion(h, k, d*2) >= v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheModelShape(t *testing.T) {
	m := CacheModel{
		CacheLines:       196608, // 12MB / 64B
		TargetHitsPerSec: 21e6,   // MON-like
		TargetChunks:     100000,
	}
	if m.ConversionRate(0) != 0 {
		t.Fatal("no competition → no conversion")
	}
	low := m.ConversionRate(10e6)
	mid := m.ConversionRate(50e6)
	high := m.ConversionRate(250e6)
	if !(low < mid && mid < high) {
		t.Fatalf("conversion not monotone: %v %v %v", low, mid, high)
	}
	if high > 1 {
		t.Fatalf("conversion rate %v exceeds 1", high)
	}
	// The paper's shape: sharp rise then slow-down. The marginal increase
	// from 0→50M must exceed that from 50M→100M... per unit.
	first := mid - low
	second := m.ConversionRate(90e6) - mid
	if second >= first {
		t.Fatalf("conversion curve is not concave: Δ1=%v Δ2=%v", first, second)
	}
	if d := m.EstimatedDrop(250e6, DeltaSeconds); d <= 0 || d >= 1 {
		t.Fatalf("estimated drop %v out of range", d)
	}
}

func TestCacheModelDegenerate(t *testing.T) {
	if (CacheModel{}).ConversionRate(1e6) != 0 {
		t.Fatal("degenerate model must return 0")
	}
}

// --- scheduling ---

func TestEnumerateSplits(t *testing.T) {
	flows := []apps.FlowType{apps.MON, apps.MON, apps.FW, apps.FW}
	splits := enumerateSplits(flows, 2)
	// take ∈ {0,1,2} MON for socket0 → 3 splits (with FW filling up).
	if len(splits) != 3 {
		t.Fatalf("splits = %d, want 3", len(splits))
	}
	for _, s := range splits {
		if len(s.s0) != 2 || len(s.s1) != 2 {
			t.Fatalf("uneven split %v | %v", s.s0, s.s1)
		}
	}
}

func TestEvaluatePlacements(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario sweep")
	}
	p := testPredictor()
	flows := make([]apps.FlowType, 0, 12)
	for i := 0; i < 6; i++ {
		flows = append(flows, apps.MON, apps.FW)
	}
	eval, err := EvaluatePlacements(p, flows)
	if err != nil {
		t.Fatal(err)
	}
	// 6 MON / 6 FW: socket0 MON count 0..6, symmetric → 4 distinct.
	if len(eval.All) != 4 {
		t.Fatalf("distinct placements = %d, want 4", len(eval.All))
	}
	if eval.Gain < 0 {
		t.Fatalf("gain %v negative", eval.Gain)
	}
	if eval.Best.AvgDrop > eval.Worst.AvgDrop {
		t.Fatal("best placement worse than worst")
	}
	if len(eval.Best.PerFlow) != 12 {
		t.Fatalf("per-flow drops = %d, want 12", len(eval.Best.PerFlow))
	}
}

func TestEvaluatePlacementsValidation(t *testing.T) {
	p := testPredictor()
	if _, err := EvaluatePlacements(p, []apps.FlowType{apps.MON}); err == nil {
		t.Fatal("wrong flow count must fail")
	}
}

func TestGreedyPlacementBalanced(t *testing.T) {
	p := testPredictor()
	flows := make([]apps.FlowType, 0, 12)
	for i := 0; i < 6; i++ {
		flows = append(flows, apps.MON, apps.FW)
	}
	s0, s1, err := GreedyPlacement(p, flows)
	if err != nil {
		t.Fatal(err)
	}
	if len(s0) != 6 || len(s1) != 6 {
		t.Fatalf("unbalanced: %d/%d", len(s0), len(s1))
	}
	// Snake dealing of 6 MON (aggressive) and 6 FW must mix both types
	// on each socket.
	count := func(ts []apps.FlowType, w apps.FlowType) int {
		n := 0
		for _, t := range ts {
			if t == w {
				n++
			}
		}
		return n
	}
	if count(s0, apps.MON) == 6 || count(s1, apps.MON) == 6 {
		t.Fatalf("greedy placement clustered all MON flows: %v | %v", s0, s1)
	}
}
