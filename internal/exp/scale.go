// Package exp drives the reproduction of every table and figure in the
// paper's evaluation: Table 1 (workload characteristics), Figure 2
// (contention between realistic flows), Figure 4 (contention per
// resource), Figure 5 (realistic vs synthetic competition), Figure 6
// (Equation 1 worst-case bounds), Figure 7 (hit-to-miss conversion and
// the Appendix A model), Figures 8 and 9 (prediction accuracy), Figure 10
// (contention-aware scheduling), the Section 4 throttling demonstration,
// and the Section 2.2 parallel-versus-pipeline comparison.
//
// Every experiment takes one *core.Predictor, built by Scale.NewPredictor:
// it carries the platform, workload and windows, so the same driver runs
// at paper scale (benchmarks, cmd/pktbench) or at a reduced scale (unit
// tests), and experiments sharing it share its memoised measurements.
// Drivers measure co-runs only through it — Figure 4's ramps are its
// curves under core.Modes' three placements, §2.2's parallel pair a
// MeasureMix — so every point fans out and is measured once; the
// throttling loop's live engine and §2.2's cut stages, which are not
// flow lists, are the only engines a driver builds itself.
//
// Every result renders through one method, Table: its columns are the
// figure's CSV columns and its notes carry what the rows alone do not
// (averages, worst cases, the assumptions behind a prediction), so the
// text, CSV and markdown forms of internal/table all show the same result.
package exp

import (
	"fmt"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/hw"
)

// Scale bundles a platform configuration, workload parameters, and
// measurement windows.
type Scale struct {
	Name   string
	Cfg    hw.Config
	Params apps.Params
	Warmup float64 // virtual seconds discarded before each window
	Window float64 // virtual seconds measured
	// SweepGrid is the SYN compute-per-access grid used for profiling
	// sweeps (lower = more competing refs/sec).
	SweepGrid []int
}

// Full returns the paper-scale setup: the Westmere platform model and
// Section 2.1 workload sizes.
func Full() Scale {
	return Scale{
		Name:      "full",
		Cfg:       hw.DefaultConfig(),
		Params:    apps.Default(),
		Warmup:    0.004,
		Window:    0.012,
		SweepGrid: []int{3200, 1600, 800, 400, 200, 100, 50, 25, 0},
	}
}

// ScaleByName resolves a -scale flag value ("full" or "quick"), the one
// parser every command shares.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "full":
		return Full(), nil
	case "quick":
		return Quick(), nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q", name)
}

// Quick returns a reduced scale for tests: small tables, a proportionally
// small cache hierarchy, and short windows. Structure and regime (working
// sets exceeding the shared cache, one flow per core) match Full.
func Quick() Scale {
	cfg := hw.DefaultConfig()
	cfg.L1D = hw.CacheGeom{SizeBytes: 4 << 10, Ways: 4}
	cfg.L2 = hw.CacheGeom{SizeBytes: 32 << 10, Ways: 8}
	cfg.L3 = hw.CacheGeom{SizeBytes: 1 << 20, Ways: 16}
	return Scale{
		Name:      "quick",
		Cfg:       cfg,
		Params:    apps.Small(),
		Warmup:    0.0005,
		Window:    0.002,
		SweepGrid: []int{1600, 400, 100, 0},
	}
}

// NewPredictor builds a predictor bound to this scale.
func (s Scale) NewPredictor() *core.Predictor {
	p := core.NewPredictor(s.Cfg, s.Params, s.Warmup, s.Window)
	if s.SweepGrid != nil {
		p.SweepGrid = s.SweepGrid
	}
	return p
}
