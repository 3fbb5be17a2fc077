package core

import (
	"fmt"

	"pktpredict/internal/elements"
	"pktpredict/internal/hw"
)

// Throttling (Section 4, "containing hidden aggressiveness"): an
// administrator monitors each flow's memory-access rate with hardware
// counters and, when a flow exceeds the rate it exhibited during offline
// profiling, configures its control element to slow it down. The result
// is that no flow can perform more cache references per second than it
// was profiled at, so the offline-profiling-based prediction remains
// valid even against flows that change behaviour at run time.

// ThrottleSample records one monitoring interval of the containment loop.
type ThrottleSample struct {
	Interval    int
	RefsPerSec  float64
	DelayCycles uint32
}

// ThrottleSlack is the measurement noise tolerated above a flow's
// profiled reference rate before it is throttled.
const ThrottleSlack = 0.05

// RateController is the pure control law of the containment loop,
// decoupled from any engine so both the offline Containment loop and the
// concurrent runtime's admission control can drive it: proportional
// adjustment of a control element's per-packet delay so a flow's observed
// memory-reference rate converges to its profiled limit.
type RateController struct {
	// Limit is the profiled L3 refs/sec the flow may not exceed.
	Limit float64
}

// Step computes the next control-element delay from one interval's
// telemetry: the flow's observed refs/sec and mean cycles per packet, and
// the delay currently configured. throttled reports whether the flow was
// over its limit (the delay was increased).
//
// To move the reference rate from r to the limit, per-packet time must
// scale by r/limit, i.e. the delay must change by
// cyclesPerPacket·(r/limit − 1). Under the limit, the equivalent slack is
// handed back so a flow hovering near its limit oscillates tightly around
// it and a reformed flow regains its throughput.
func (rc RateController) Step(refsPerSec, cyclesPerPacket float64, delay uint32) (next uint32, throttled bool) {
	if rc.Limit <= 0 || cyclesPerPacket <= 0 {
		return delay, false
	}
	switch {
	case refsPerSec > rc.Limit*(1+ThrottleSlack):
		needed := cyclesPerPacket * (refsPerSec/rc.Limit - 1)
		return delay + uint32(needed) + 1, true
	case refsPerSec < rc.Limit && delay > 0:
		give := cyclesPerPacket * (1 - refsPerSec/rc.Limit)
		if give >= float64(delay) {
			return 0, false
		}
		return delay - uint32(give) - 1, false
	}
	return delay, false
}

// Containment drives the monitor-and-throttle loop for flow index flowIdx
// of e: steps monitoring intervals of the given virtual length, after
// each of which ctl's delay is adjusted to clamp the flow to
// limitRefsPerSec. It returns one sample per interval. The controller is
// deliberately simple — proportional increase when over the limit, gentle
// decrease when under — because the paper's point is that a trivial
// mechanism suffices once the memory-access rate is observable.
func Containment(e *hw.Engine, flowIdx int, ctl *elements.Control, limitRefsPerSec, interval float64, steps int) ([]ThrottleSample, error) {
	if flowIdx < 0 || flowIdx >= len(e.Flows) {
		return nil, fmt.Errorf("core: flow index %d out of range", flowIdx)
	}
	if ctl == nil {
		return nil, fmt.Errorf("core: containment requires a control element")
	}
	if limitRefsPerSec <= 0 {
		return nil, fmt.Errorf("core: containment limit must be positive")
	}
	rc := RateController{Limit: limitRefsPerSec}
	samples := make([]ThrottleSample, 0, steps)
	for step := range steps {
		st := e.Measure(interval)[flowIdx]
		next, _ := rc.Step(st.L3RefsPerSec(), st.CyclesPerPacket(), ctl.Delay())
		ctl.SetDelay(next)
		samples = append(samples, ThrottleSample{Interval: step, RefsPerSec: st.L3RefsPerSec(), DelayCycles: ctl.Delay()})
	}
	return samples, nil
}
