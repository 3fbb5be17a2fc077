// Benchmarks that regenerate every table and figure of the paper's
// evaluation, plus ablations over the hardware model's design choices.
// Each benchmark prints the reproduced rows/series through b.Log and
// reports its headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation. Figure benchmarks share one predictor:
// its memoised solo profiles, sweeps, and co-run measurements mirror how
// an operator reuses offline profiles, and keep the suite's runtime
// bounded.
package pktpredict_test

import (
	"fmt"
	"sync"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/exp"
	"pktpredict/internal/hw"
	"pktpredict/internal/runtime"
)

// benchScale is the paper-scale platform with benchmark-friendly
// measurement windows: long enough for steady state, short enough that
// the full suite completes in minutes.
func benchScale() exp.Scale {
	s := exp.Full()
	s.Warmup = 0.003
	s.Window = 0.008
	s.SweepGrid = []int{1600, 800, 400, 100, 25, 0}
	return s
}

var (
	benchOnce sync.Once
	benchPred *core.Predictor
)

func benchSetup(b *testing.B) *core.Predictor {
	b.Helper()
	benchOnce.Do(func() { benchPred = benchScale().NewPredictor() })
	return benchPred
}

func BenchmarkTable1(b *testing.B) {
	p := benchSetup(b)
	for i := 0; i < b.N; i++ {
		res, err := exp.RunTable1(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	p := benchSetup(b)
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig2(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			max := res.MaxDrop()
			b.ReportMetric(max.Drop*100, "max_drop_%")
			b.ReportMetric(res.Average[apps.MON]*100, "mon_avg_drop_%")
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	p := benchSetup(b)
	// Two targets keep the 3-mode ramp suite bounded; run cmd/pktbench
	// -exp fig4 for all five types.
	targets := []apps.FlowType{apps.MON, apps.FW}
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig4(p, targets)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			cache, _ := res.Get(apps.MON, exp.CacheOnly)
			mem, _ := res.Get(apps.MON, exp.MemCtrlOnly)
			b.ReportMetric(cache.MaxDrop()*100, "mon_cache_only_max_%")
			b.ReportMetric(mem.MaxDrop()*100, "mon_memctrl_only_max_%")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	p := benchSetup(b)
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig5(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(res.MaxDeviation()*100, "max_deviation_%")
			b.ReportMetric(res.MeanDeviation()*100, "mean_deviation_%")
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	p := benchSetup(b)
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig6(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	p := benchSetup(b)
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig7(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			last := res.Points[len(res.Points)-1]
			b.ReportMetric(last.Measured*100, "max_conversion_%")
			b.ReportMetric(last.PerFunc["flow_statistics"]*100, "flow_statistics_conv_%")
			b.ReportMetric(last.PerFunc["skb_recycle"]*100, "skb_recycle_conv_%")
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	p := benchSetup(b)
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig8(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(res.MaxAbsError*100, "worst_error_%")
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	p := benchSetup(b)
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig9(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(res.MaxError*100, "worst_error_%")
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	p := benchSetup(b)
	combos := []exp.Fig10Combo{}
	for _, c := range exp.DefaultCombos() {
		switch c.Label {
		case "6MON+6FW", "6MON+6RE", "6SYNMAX+6FW":
			combos = append(combos, c)
		}
	}
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig10(p, combos)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			realistic, _ := res.MaxGain(false)
			synthetic, _ := res.MaxGain(true)
			b.ReportMetric(realistic*100, "realistic_gain_%")
			b.ReportMetric(synthetic*100, "synthetic_gain_%")
		}
	}
}

func BenchmarkThrottle(b *testing.B) {
	p := benchSetup(b)
	for i := 0; i < b.N; i++ {
		res, err := exp.RunThrottle(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(res.VictimProtection()*100, "victim_protection_%")
			b.ReportMetric(res.PeakUncontained()/1e6, "aggr_peak_Mrefs")
		}
	}
}

func BenchmarkPipelineVsParallel(b *testing.B) {
	p := benchSetup(b)
	for i := 0; i < b.N; i++ {
		res, err := exp.RunPipeline(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			for _, row := range res.Rows {
				if row.Workload == "MON" {
					b.ReportMetric(row.ParallelPktsPerSec/row.PipelinePktsPerSec, "mon_parallel_speedup_x")
				}
			}
		}
	}
}

// BenchmarkRuntime scales the concurrent dataplane across worker counts
// so scaling regressions are visible: each sub-benchmark executes a
// saturating IP-forwarding mix on 1, 2, 4, and 8 workers (8 spans both
// sockets) for a fixed virtual window and reports aggregate packets per
// virtual second plus host-time cost per simulated packet.
func BenchmarkRuntime(b *testing.B) {
	p := benchSetup(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var total uint64
			var virtSec float64
			for i := 0; i < b.N; i++ {
				cfg := runtime.Config{
					Cfg:      p.Cfg,
					Params:   p.Params,
					Apps:     []runtime.AppSpec{{Name: "ipfwd", Type: apps.IP, Workers: workers}},
					Warmup:   0.001,
					Scenario: fmt.Sprintf("bench-%d", workers),
				}
				r, err := runtime.NewRuntime(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := r.Run(0.004)
				if err != nil {
					b.Fatal(err)
				}
				total += rep.TotalProcessed()
				virtSec += rep.Duration
			}
			if virtSec > 0 {
				// total and virtSec both accumulate across iterations, so
				// their ratio is already the per-run aggregate rate.
				b.ReportMetric(float64(total)/virtSec/1e6, "Mpps_virtual")
			}
			if total > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "host_ns/pkt")
			}
		})
	}
}

// --- ablations: which hardware-model features carry the paper's
// observations? Each ablation re-measures the MON-vs-5-RE drop (the
// paper's headline contention case) with one model feature changed.

func ablationDrop(b *testing.B, mutate func(*hw.Config)) float64 {
	b.Helper()
	s := benchScale()
	mutate(&s.Cfg)
	p := s.NewPredictor()
	cell, err := exp.RunFig2Pair(p, apps.MON, apps.RE)
	if err != nil {
		b.Fatal(err)
	}
	return cell.Drop
}

func BenchmarkAblationBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := ablationDrop(b, func(*hw.Config) {})
		if i == 0 {
			b.ReportMetric(d*100, "mon_vs_re_drop_%")
		}
	}
}

func BenchmarkAblationRandomReplacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := ablationDrop(b, func(c *hw.Config) { c.L3Policy = hw.ReplaceRandom })
		if i == 0 {
			b.ReportMetric(d*100, "mon_vs_re_drop_%")
		}
	}
}

func BenchmarkAblationNonInclusiveL3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := ablationDrop(b, func(c *hw.Config) { c.InclusiveL3 = false })
		if i == 0 {
			b.ReportMetric(d*100, "mon_vs_re_drop_%")
		}
	}
}

func BenchmarkAblationDirectMappedL3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := ablationDrop(b, func(c *hw.Config) { c.L3.Ways = 1 })
		if i == 0 {
			b.ReportMetric(d*100, "mon_vs_re_drop_%")
		}
	}
}

func BenchmarkAblationNoMemCtrlQueueing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := ablationDrop(b, func(c *hw.Config) { c.MemCtrlService = 1 })
		if i == 0 {
			b.ReportMetric(d*100, "mon_vs_re_drop_%")
		}
	}
}
