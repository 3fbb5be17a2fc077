package exp

import (
	"encoding/csv"
	"flag"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
)

// The experiment drivers re-run many co-run scenarios; tests share one
// predictor (and its memoised measurements) to keep the package's test
// time reasonable. Everything is deterministic, so sharing is safe.
var (
	sharedOnce sync.Once
	sharedPred *core.Predictor
)

func quickSetup(t *testing.T) *core.Predictor {
	t.Helper()
	sharedOnce.Do(func() { sharedPred = Quick().NewPredictor() })
	return sharedPred
}

func TestTable1(t *testing.T) {
	p := quickSetup(t)
	res, err := RunTable1(p)
	if err != nil {
		t.Fatal(err)
	}
	wantGolden(t, "testdata/table1_quick.csv", res.Table().CSV())
	if len(res.Profiles) != 5 {
		t.Fatalf("profiles = %d, want 5", len(res.Profiles))
	}
	byLabel := map[string]float64{}
	for _, pr := range res.Profiles {
		if pr.Throughput() <= 0 || pr.CyclesPerPacket() <= 0 {
			t.Fatalf("%s: empty profile", pr.Label)
		}
		byLabel[pr.Label] = pr.CyclesPerPacket()
	}
	// Heavier processing must cost more cycles per packet.
	if !(byLabel["IP"] < byLabel["MON"] && byLabel["MON"] < byLabel["FW"]) {
		t.Fatalf("cycles/packet ordering wrong: %v", byLabel)
	}
}

func TestFig2(t *testing.T) {
	p := quickSetup(t)
	res, err := RunFig2(p)
	if err != nil {
		t.Fatal(err)
	}
	wantGolden(t, "testdata/fig2_quick.csv", res.Table().CSV())
	if len(res.Cells) != 25 {
		t.Fatalf("cells = %d, want 25", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Drop < -0.05 || c.Drop > 1 {
			t.Fatalf("%s vs %s: drop %v out of range", c.Target, c.Competitor, c.Drop)
		}
	}
	// The paper's headline orderings: MON is the most sensitive type on
	// average; FW suffers and causes little.
	if res.Average[apps.MON] <= res.Average[apps.FW] {
		t.Fatalf("MON avg (%v) must exceed FW avg (%v)",
			res.Average[apps.MON], res.Average[apps.FW])
	}
	var monRE, monFW Fig2Cell
	for _, c := range res.Cells {
		switch {
		case c.Target == apps.MON && c.Competitor == apps.RE:
			monRE = c
		case c.Target == apps.MON && c.Competitor == apps.FW:
			monFW = c
		}
	}
	if monRE.Drop <= monFW.Drop {
		t.Fatalf("RE competitors (%v) must hurt MON more than FW competitors (%v)",
			monRE.Drop, monFW.Drop)
	}
}

func TestFig4(t *testing.T) {
	p := quickSetup(t)
	res, err := RunFig4(p, []apps.FlowType{apps.MON})
	if err != nil {
		t.Fatal(err)
	}
	wantGolden(t, "testdata/fig4_mon_quick.csv", res.Table().CSV())
	cache, ok1 := res.Get(apps.MON, core.CacheOnly)
	mem, ok2 := res.Get(apps.MON, core.MemCtrlOnly)
	both, ok3 := res.Get(apps.MON, core.Both)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing series")
	}
	// The paper's central resource finding: the cache dominates.
	if cache.MaxDrop() <= mem.MaxDrop() {
		t.Fatalf("cache-only max drop (%v) must exceed memctrl-only (%v)",
			cache.MaxDrop(), mem.MaxDrop())
	}
	if both.MaxDrop() < cache.MaxDrop()*0.8 {
		t.Fatalf("both-resources drop (%v) should be at least cache-only (%v)",
			both.MaxDrop(), cache.MaxDrop())
	}
	// Drop must grow with competition within each series.
	for _, series := range res.Series {
		pts := series.Points
		if pts[len(pts)-1].Drop < pts[0].Drop {
			t.Fatalf("%s/%s: drop decreased along the ramp", series.Target, series.Mode)
		}
	}
}

// TestFig5 also pins that Figure 5 recomputes Figure 2 through the
// predictor's memo: its points are Figure 2's cells bit for bit, whether
// Figure 2 ran on the predictor first (-exp all) or not (-exp fig5).
func TestFig5(t *testing.T) {
	p := quickSetup(t)
	fig2, err := RunFig2(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFig5(p)
	if err != nil {
		t.Fatal(err)
	}
	wantGolden(t, "testdata/fig5_quick.csv", res.Table().CSV())
	if !slices.Equal(res.Points, fig2.Cells) {
		t.Fatal("Figure 5's realistic points differ from Figure 2's cells")
	}
	// The same on two fresh predictors, one of which never ran Figure 2;
	// short windows keep the second pair of 25 co-runs cheap.
	short := Quick()
	short.Warmup, short.Window, short.SweepGrid = 0.00002, 0.00005, []int{400, 0}
	want, err := RunFig2(short.NewPredictor())
	if err != nil {
		t.Fatal(err)
	}
	alone, err := RunFig5(short.NewPredictor())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(alone.Points, want.Cells) {
		t.Fatal("Figure 5 run alone differs from Figure 2's cells")
	}
	if len(res.Curves) != 5 || len(res.Points) != 25 {
		t.Fatalf("curves/points = %d/%d", len(res.Curves), len(res.Points))
	}
	// Observation (b): realistic competitors behave like SYN flows at the
	// same refs/sec. At quick scale allow a loose bound.
	if dev := res.MaxDeviation(); dev > 0.25 {
		t.Fatalf("max deviation %v: realistic points far off synthetic curves", dev)
	}
	if res.MeanDeviation() > 0.10 {
		t.Fatalf("mean deviation %v too large", res.MeanDeviation())
	}
}

func TestFig6(t *testing.T) {
	p := quickSetup(t)
	res, err := RunFig6(p)
	if err != nil {
		t.Fatal(err)
	}
	wantGolden(t, "testdata/fig6_quick.csv", res.Table().CSV())
	if len(res.Curves) != 3 || len(res.Points) != 5 {
		t.Fatalf("curves/points = %d/%d", len(res.Curves), len(res.Points))
	}
	// Larger δ curves must dominate smaller ones point-wise.
	for i := range res.Curves[0].HitsPerSec {
		if !(res.Curves[0].Drop[i] <= res.Curves[1].Drop[i] &&
			res.Curves[1].Drop[i] <= res.Curves[2].Drop[i]) {
			t.Fatalf("δ ordering violated at index %d", i)
		}
	}
	for _, pt := range res.Points {
		if pt.WorstCaseDrop < 0 || pt.WorstCaseDrop >= 1 {
			t.Fatalf("%s: worst-case drop %v out of range", pt.Flow, pt.WorstCaseDrop)
		}
	}
}

func TestFig7(t *testing.T) {
	p := quickSetup(t)
	res, err := RunFig7(p)
	if err != nil {
		t.Fatal(err)
	}
	wantGolden(t, "testdata/fig7_quick.csv", res.Table().CSV())
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.Measured <= first.Measured {
		t.Fatalf("conversion did not grow with competition: %v → %v",
			first.Measured, last.Measured)
	}
	if last.Model <= 0 || last.Model > 1 {
		t.Fatalf("model estimate %v out of range", last.Model)
	}
	// The paper's per-function contrast: bookkeeping functions
	// (skb_recycle) barely convert; the uniformly-accessed flow table
	// (flow_statistics) converts heavily.
	if last.PerFunc["skb_recycle"] >= last.PerFunc["flow_statistics"] {
		t.Fatalf("skb_recycle conversion (%v) must stay below flow_statistics (%v)",
			last.PerFunc["skb_recycle"], last.PerFunc["flow_statistics"])
	}
}

func TestFig8(t *testing.T) {
	p := quickSetup(t)
	res, err := RunFig8(p)
	if err != nil {
		t.Fatal(err)
	}
	wantGolden(t, "testdata/fig8_quick.csv", res.Table().CSV())
	if len(res.Cells) != 25 {
		t.Fatalf("cells = %d, want 25", len(res.Cells))
	}
	// Prediction quality: the paper achieves <3% at full scale; quick
	// scale tolerates more but errors must stay bounded.
	if res.MaxAbsError > 0.20 {
		t.Fatalf("worst prediction error %v too large", res.MaxAbsError)
	}
	// Perfect knowledge must not be systematically worse than the
	// solo-rate assumption.
	var oursSum, perfSum float64
	for _, target := range apps.RealisticTypes {
		oursSum += res.AvgError[target]
		perfSum += res.AvgPerfectErr[target]
	}
	if perfSum > oursSum*1.5 {
		t.Fatalf("perfect-knowledge errors (%v) dwarf ours (%v)", perfSum, oursSum)
	}
}

func TestFig9(t *testing.T) {
	p := quickSetup(t)
	res, err := RunFig9(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantGolden(t, "testdata/fig9_quick.csv", res.Table().CSV())
	if len(res.Flows) != 6 {
		t.Fatalf("flows = %d, want 6", len(res.Flows))
	}
	if res.MaxError > 0.20 {
		t.Fatalf("max error %v too large", res.MaxError)
	}
}

func TestFig10(t *testing.T) {
	p := quickSetup(t)
	combos := []Fig10Combo{
		{Label: "6MON+6FW", Flows: []apps.FlowType{
			apps.MON, apps.MON, apps.MON, apps.MON, apps.MON, apps.MON,
			apps.FW, apps.FW, apps.FW, apps.FW, apps.FW, apps.FW}},
	}
	res, err := RunFig10(p, combos)
	if err != nil {
		t.Fatal(err)
	}
	wantGolden(t, "testdata/fig10_6mon6fw_quick.csv", res.Table().CSV())
	combo := res.Combos[0]
	if len(combo.Eval.All) != 4 {
		t.Fatalf("placements = %d, want 4", len(combo.Eval.All))
	}
	if combo.Eval.Gain < 0 {
		t.Fatalf("negative gain %v", combo.Eval.Gain)
	}
	if len(combo.Eval.Best.PerFlow) != 12 {
		t.Fatalf("per-flow = %d, want 12", len(combo.Eval.Best.PerFlow))
	}
}

// TestFig10UnlabelledCombo: RunFig10 labels a combo that has no label by
// its type counts, "6 MON, 6 FW", as pktbench sched does. The CSV quotes
// that label, so every row reads back as the header's 5 fields (written
// raw, it made 6); and the text reports a gain only for the kinds of
// combo evaluated, plus the per-flow detail of Figure 10(b).
func TestFig10UnlabelledCombo(t *testing.T) {
	res, err := RunFig10(quickSetup(t), []Fig10Combo{{Flows: DefaultCombos()[0].Flows}})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(res.Table().CSV())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if len(rec) != 5 {
			t.Fatalf("CSV record %d has %d fields, want 5: %q", i, len(rec), rec)
		}
	}
	if got := recs[1][0]; got != "6 MON, 6 FW" {
		t.Fatalf("combination = %q, want the count label", got)
	}
	text := res.Table().String()
	for _, want := range []string{"\nmax gain: realistic ", "\nFigure 10(b) 6 MON, 6 FW, best placement: socket0 ",
		"\nFigure 10(b) 6 MON, 6 FW, worst placement: socket0 "} {
		if !strings.Contains(text, want) {
			t.Errorf("text lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "synthetic") {
		t.Errorf("text reports a synthetic gain with no synthetic combo evaluated:\n%s", text)
	}
}

func TestThrottleExperiment(t *testing.T) {
	p := quickSetup(t)
	res, err := RunThrottle(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakUncontained() < res.ProfiledRefsPerSec*1.5 {
		t.Fatalf("aggression did not manifest: peak %v vs profiled %v",
			res.PeakUncontained(), res.ProfiledRefsPerSec)
	}
	if res.FinalContained() > res.ProfiledRefsPerSec*1.6 {
		t.Fatalf("containment failed: final %v vs profiled %v",
			res.FinalContained(), res.ProfiledRefsPerSec)
	}
	if res.VictimContainedTput <= res.VictimUncontainedTput {
		t.Fatalf("containment did not protect the victim: %v vs %v pkts/sec",
			res.VictimContainedTput, res.VictimUncontainedTput)
	}
	wantGolden(t, "testdata/throttle_quick.csv", res.Table().CSV())
}

var update = flag.Bool("update", false, "rewrite testdata/*_quick.csv from this run")

// wantGolden requires a figure's quick-scale CSV to equal the committed
// one byte for byte: a refactor of the figure's driver moves no number,
// and a model change that does regenerates the files in the same commit
// (go test ./internal/exp/ -args -update) and says which figure moved.
func wantGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("CSV differs from %s:\n%s", path, got)
	}
}

// TestUncutMatchesEmitPacket is the engine-side twin of the runtime's
// TestOneStageTraceMatchesEmitPacket: a pipeline left whole by
// cutPipeline emits exactly run-to-completion Pipeline.EmitPacket's
// trace, packet for packet, and reaches the same outcome counters.
func TestUncutMatchesEmitPacket(t *testing.T) {
	build := func() *apps.Instance {
		inst, err := Quick().Params.Build(apps.MON, mem.NewArena(0), core.SeedFor(apps.MON, 0))
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	rtc := build().Pipeline
	cuts, err := cutPipeline(build().Pipeline, 0, mem.NewArena(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 1 || cuts[0].in != nil || cuts[0].out != nil {
		t.Fatalf("uncut pipeline: %d stages, rings %v/%v", len(cuts), cuts[0].in, cuts[0].out)
	}
	var got, want []hw.Op
	for i := 0; i < 1000; i++ {
		got, want = cuts[0].EmitPacket(got[:0]), rtc.EmitPacket(want[:0])
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("packet %d: uncut trace (%d ops) differs from EmitPacket's (%d ops)", i, len(got), len(want))
		}
	}
	if n := cuts[0].completed(); n != 1000 || n != rtc.Finished+rtc.Dropped {
		t.Fatalf("completed %d, pipeline finished %d + dropped %d", n, rtc.Finished, rtc.Dropped)
	}
}

func TestPipelineExperiment(t *testing.T) {
	p := quickSetup(t)
	res, err := RunPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	wantGolden(t, "testdata/pipeline_quick.csv", res.Table().CSV())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	var mon, crafted PipelineRow
	for _, r := range res.Rows {
		switch r.Workload {
		case "MON":
			mon = r
		case "crafted":
			crafted = r
		}
	}
	// Section 2.2: parallel wins for realistic workloads...
	if mon.Winner() != "parallel" {
		t.Fatalf("MON: %s won (parallel %.0f vs pipeline %.0f)",
			mon.Winner(), mon.ParallelPktsPerSec, mon.PipelinePktsPerSec)
	}
	// ...and the crafted 2x-L3 workload is the exception where the
	// pipeline wins.
	if crafted.Winner() != "pipeline" {
		t.Fatalf("crafted: %s won (parallel %.0f vs pipeline %.0f)",
			crafted.Winner(), crafted.ParallelPktsPerSec, crafted.PipelinePktsPerSec)
	}
}

func TestPctAndMrefs(t *testing.T) {
	if pct(0.123) != "12.3%" {
		t.Fatalf("pct = %q", pct(0.123))
	}
	if mrefs(25_850_000) != "25.9M" {
		t.Fatalf("mrefs = %q", mrefs(25_850_000))
	}
}

func TestScalePresets(t *testing.T) {
	full, quick := Full(), Quick()
	if full.Params.Routes <= quick.Params.Routes {
		t.Fatal("full scale must exceed quick scale")
	}
	if full.Cfg.L3.SizeBytes != 12<<20 {
		t.Fatalf("full L3 = %d, want 12MB", full.Cfg.L3.SizeBytes)
	}
	if quick.Window >= full.Window {
		t.Fatal("quick window must be shorter")
	}
}
