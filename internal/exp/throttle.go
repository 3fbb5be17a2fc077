package exp

import (
	"fmt"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/table"
)

// ThrottleResult reproduces the Section 4 containment demonstration: a
// flow that profiles like FW turns aggressive at run time; with the
// control element driven by counter monitoring, its memory-access rate is
// clamped back to the profiled level.
type ThrottleResult struct {
	// ProfiledRefsPerSec is the limit established by offline profiling.
	ProfiledRefsPerSec float64
	// Uncontained and Contained are the aggressor's refs/sec time series
	// without and with the containment loop.
	Uncontained []core.ThrottleSample
	Contained   []core.ThrottleSample
	// VictimUncontainedTput and VictimContainedTput are a MON
	// co-runner's packets/sec in the post-trigger steady state of each
	// run, measured at the same virtual-time position so they compare
	// directly. VictimBaselineTput is its pre-trigger throughput.
	VictimBaselineTput    float64
	VictimUncontainedTput float64
	VictimContainedTput   float64
}

// VictimProtection returns the fraction of the victim's throughput that
// containment preserved: 1 − uncontained/contained.
func (r *ThrottleResult) VictimProtection() float64 {
	if r.VictimContainedTput == 0 {
		return 0
	}
	return 1 - r.VictimUncontainedTput/r.VictimContainedTput
}

// RunThrottle builds two identical scenarios — a hidden-aggressor flow
// plus a MON victim on the same socket — and runs one with the
// containment loop and one without.
func RunThrottle(p *core.Predictor) (*ThrottleResult, error) {
	fwSolo, err := p.Solo(apps.FW)
	if err != nil {
		return nil, err
	}

	// The trigger fires well after the offline profiling phase (two
	// warmup-length windows of honest FW behaviour), whatever the scale's
	// packet rate is.
	trigger := uint64(fwSolo.Throughput()*p.Warmup*2*2) + 400
	build := func() (*core.RunResult, error) {
		return core.Scenario{
			Cfg:    p.Cfg,
			Params: p.Params,
			Flows: []core.FlowSpec{
				{Type: apps.FW, Core: 0, Domain: 0, Seed: core.SeedFor(apps.FW, 0), HiddenTrigger: trigger},
				{Type: apps.MON, Core: 1, Domain: 0, Seed: core.SeedFor(apps.MON, 1)},
			},
		}.Build()
	}

	out := &ThrottleResult{}
	interval := p.Window / 4
	steps := 24

	// Offline profile of the honest phase: run a fresh scenario's warmup
	// and measure before the trigger.
	prof, err := build()
	if err != nil {
		return nil, err
	}
	honest := prof.Engine.MeasureWindow(p.Warmup, p.Warmup)[0]
	if n := prof.Engine.Flows[0].Core.Counters.Packets; n >= trigger {
		return nil, fmt.Errorf("exp: throttle profiling window crossed the trigger (%d of %d packets)", n, trigger)
	}
	out.ProfiledRefsPerSec = honest.L3RefsPerSec()

	// Run 1: no containment — observe the aggression and the victim's
	// drop versus its own pre-trigger throughput.
	free, err := build()
	if err != nil {
		return nil, err
	}
	// The victim's throughput while the aggressor is still honest.
	out.VictimBaselineTput = free.Engine.MeasureWindow(p.Warmup, p.Warmup)[1].Throughput()
	for i := 0; i < steps; i++ {
		out.Uncontained = append(out.Uncontained, core.ThrottleSample{
			Interval: i, RefsPerSec: free.Engine.Measure(interval)[0].L3RefsPerSec()})
	}
	out.VictimUncontainedTput = free.Engine.Measure(interval * 4)[1].Throughput()

	// Run 2: containment active, after the same two pre-trigger windows.
	contained, err := build()
	if err != nil {
		return nil, err
	}
	contained.Engine.MeasureWindow(p.Warmup, p.Warmup)
	out.Contained, err = core.Containment(contained.Engine, 0, contained.Instances[0].Control, out.ProfiledRefsPerSec, interval, steps)
	if err != nil {
		return nil, err
	}
	out.VictimContainedTput = contained.Engine.Measure(interval * 4)[1].Throughput()
	return out, nil
}

// PeakUncontained returns the aggressor's maximum observed rate without
// containment.
func (r *ThrottleResult) PeakUncontained() float64 {
	var m float64
	for _, s := range r.Uncontained {
		m = max(m, s.RefsPerSec)
	}
	return m
}

// FinalContained returns the aggressor's rate at the end of containment.
func (r *ThrottleResult) FinalContained() float64 {
	if len(r.Contained) == 0 {
		return 0
	}
	return r.Contained[len(r.Contained)-1].RefsPerSec
}

// Table lists the aggressor's rate per interval without and with
// containment; the notes carry the profile, the extremes and the victim.
func (r *ThrottleResult) Table() *table.Table {
	t := table.New("Section 4: containing hidden aggressiveness",
		"series", "interval", "refs_per_sec", "delay_cycles").Format(mrefs, "refs_per_sec")
	for _, s := range r.Uncontained {
		t.Add("uncontained", s.Interval, s.RefsPerSec, s.DelayCycles)
	}
	for _, s := range r.Contained {
		t.Add("contained", s.Interval, s.RefsPerSec, s.DelayCycles)
	}
	t.Note("profiled rate: %s refs/sec", mrefs(r.ProfiledRefsPerSec))
	t.Note("uncontained: peak %s refs/sec, victim MON at %.0f pkts/sec", mrefs(r.PeakUncontained()), r.VictimUncontainedTput)
	t.Note("contained:   final %s refs/sec, victim MON at %.0f pkts/sec", mrefs(r.FinalContained()), r.VictimContainedTput)
	t.Note("containment preserved %s of the victim's throughput", pct(r.VictimProtection()))
	return t
}
