// Benchmarks of the concurrent runtime's scaling, plus ablations over the
// hardware model's design choices. The paper's evaluation itself is
// regenerated by go run ./cmd/pktbench -exp all and pinned, at quick
// scale, by the internal/exp CSV goldens.
package pktpredict_test

import (
	"fmt"
	"testing"

	"pktpredict/internal/apps"
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

// BenchmarkRuntime scales the concurrent dataplane across worker counts
// so scaling regressions are visible: each sub-benchmark executes a
// saturating IP-forwarding mix on 1, 2, 4, and 8 workers (8 spans both
// sockets) for a fixed virtual window and reports aggregate packets per
// virtual second plus host-time cost per simulated packet.
func BenchmarkRuntime(b *testing.B) {
	s := benchScale()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var total uint64
			var virtSec float64
			for i := 0; i < b.N; i++ {
				cfg := runtime.Config{
					Cfg:      s.Cfg,
					Params:   s.Params,
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
