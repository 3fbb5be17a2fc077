// Package core implements the paper's contribution: predicting the
// contention-induced performance drop of packet-processing flows from
// solo profiling (Section 4), the Appendix-A analytical cache model, the
// contention-aware-scheduling evaluation (Section 5), and aggressiveness
// containment by memory-access throttling (Section 4).
package core

import (
	"fmt"

	"pktpredict/internal/apps"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
)

// FlowSpec places one flow in a scenario: what it is, which core runs it,
// and which NUMA domain holds its data. Separating core and domain is
// what lets experiments expose contention for individual resources
// (Figure 3's three configurations).
type FlowSpec struct {
	Type   apps.FlowType
	Core   int
	Domain int
	Seed   uint64
	// SynCompute sets a SYN flow's compute cycles between accesses
	// (ignored for other types; SYN_MAX forces 0).
	SynCompute int
	// Control adds a throttling control element at the pipeline head.
	Control bool
	// HiddenTrigger, when positive, builds the Section 4 adversarial
	// flow: FW behaviour until this many packets, then SYN_MAX accesses.
	HiddenTrigger uint64
}

// Scenario is a complete co-run experiment: a platform configuration, a
// workload scale, the flow placement, and the measurement window.
type Scenario struct {
	Cfg    hw.Config
	Params apps.Params
	Flows  []FlowSpec
	Warmup float64 // virtual seconds before measuring
	Window float64 // virtual seconds measured
}

// RunResult gives access to everything a caller may need after a build:
// the built instances (for element counters) and the live engine, with
// its platform, for the caller to run (e.g. the throttling loop).
type RunResult struct {
	Engine    *hw.Engine
	Instances []*apps.Instance
}

// Build constructs the platform, flows, and engine without running
// anything, for callers that drive the engine themselves.
func (s Scenario) Build() (*RunResult, error) {
	return s.buildOn(hw.NewPlatform(s.Cfg))
}

// buildOn is Build on a platform in its constructed state for s.Cfg: a
// new one, or one Platform.Reset returned to it.
func (s Scenario) buildOn(platform *hw.Platform) (*RunResult, error) {
	if len(s.Flows) == 0 {
		return nil, fmt.Errorf("core: scenario has no flows")
	}
	engine := hw.NewEngine(platform)
	arenas := make(map[int]*mem.Arena)
	arena := func(d int) *mem.Arena {
		if a, ok := arenas[d]; ok {
			return a
		}
		a := mem.NewArena(d)
		arenas[d] = a
		return a
	}
	res := &RunResult{Engine: engine}
	taken := make(map[int]bool, len(s.Flows))
	for i, f := range s.Flows {
		if f.Core < 0 || f.Core >= len(platform.Cores) || taken[f.Core] {
			return nil, fmt.Errorf("core: flow %d (%s): core %d is outside [0,%d) or runs another flow", i, f.Type, f.Core, len(platform.Cores))
		}
		taken[f.Core] = true
		a := arena(f.Domain)
		inst, err := s.Params.BuildSpec(apps.Spec{
			Type: f.Type, Seed: f.Seed, SynCompute: f.SynCompute,
			Control: f.Control, HiddenTrigger: f.HiddenTrigger,
		}, func(int) *mem.Arena { return a })
		if err != nil {
			return nil, fmt.Errorf("core: flow %d (%s): %w", i, f.Type, err)
		}
		label := fmt.Sprintf("%s/core%d", f.Type, f.Core)
		engine.Attach(f.Core, label, inst.Source)
		res.Instances = append(res.Instances, inst)
	}
	return res, nil
}

// Run builds the scenario and returns each flow's statistics over one
// measured window.
func (s Scenario) Run() ([]hw.FlowStats, error) {
	res, err := s.Build()
	if err != nil {
		return nil, err
	}
	return res.Engine.MeasureWindow(s.Warmup, s.Window), nil
}

// SeedFor derives a stable per-flow seed from the flow type and its
// position, so a flow type behaves identically whether it runs solo or
// in any co-run slot.
func SeedFor(t apps.FlowType, idx int) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range []byte(t) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= uint64(idx)
	h *= 1099511628211
	return h
}
