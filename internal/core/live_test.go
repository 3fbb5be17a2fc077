package core

import (
	"math"
	"testing"

	"pktpredict/internal/apps"
)

// Hand-built curves: MON is contention-sensitive, SYN_MAX essentially
// immune — the shape the paper measures.
func liveCurves() map[apps.FlowType]Curve {
	return map[apps.FlowType]Curve{
		apps.MON: {Target: apps.MON, Points: []CurvePoint{
			{0, 0}, {50e6, 0.05}, {200e6, 0.30}, {400e6, 0.35},
		}},
		apps.SYNMAX: {Target: apps.SYNMAX, Points: []CurvePoint{
			{0, 0}, {400e6, 0.02},
		}},
	}
}

func TestPredictLiveDrops(t *testing.T) {
	curves := liveCurves()
	flows := []LiveFlow{
		{Worker: 0, Type: apps.MON, Socket: 0, RefsPerSec: 20e6},
		{Worker: 1, Type: apps.SYNMAX, Socket: 0, RefsPerSec: 200e6},
		{Worker: 2, Type: apps.MON, Socket: 1, RefsPerSec: 20e6},
	}
	drops := PredictLiveDrops(curves, flows)
	// MON on socket 0 competes with 200M refs/sec → 0.30.
	if math.Abs(drops[0]-0.30) > 1e-9 {
		t.Fatalf("MON@s0 predicted drop = %v, want 0.30", drops[0])
	}
	// MON alone on socket 1 → no competition → 0.
	if drops[2] != 0 {
		t.Fatalf("MON@s1 predicted drop = %v, want 0", drops[2])
	}
	// Unknown type predicts zero.
	unk := PredictLiveDrops(curves, []LiveFlow{{Type: apps.IP, Socket: 0, RefsPerSec: 1e6}})
	if unk[0] != 0 {
		t.Fatalf("unknown type predicted drop = %v, want 0", unk[0])
	}
}

func TestPlanRebalanceSeparatesThrashers(t *testing.T) {
	curves := liveCurves()
	// Pathological placement: each socket pairs a victim with a thrasher.
	flows := []LiveFlow{
		{Worker: 0, Type: apps.MON, Socket: 0, RefsPerSec: 20e6},
		{Worker: 1, Type: apps.SYNMAX, Socket: 0, RefsPerSec: 300e6},
		{Worker: 2, Type: apps.MON, Socket: 1, RefsPerSec: 20e6},
		{Worker: 3, Type: apps.SYNMAX, Socket: 1, RefsPerSec: 300e6},
	}
	i, j, ok := PlanRebalance(curves, flows, 0.10, 0.02)
	if !ok {
		t.Fatal("expected a rebalance proposal")
	}
	// The only sensible swap exchanges a MON with a SYN_MAX across
	// sockets, leaving victims together on one socket and thrashers on
	// the other.
	if flows[i].Socket == flows[j].Socket || flows[i].Type == flows[j].Type {
		t.Fatalf("proposed swap (%d,%d) is not a cross-socket cross-type pair", i, j)
	}
	// Applying the swap must reduce the worst predicted drop.
	before := PredictLiveDrops(curves, flows)
	flows[i].Socket, flows[j].Socket = flows[j].Socket, flows[i].Socket
	after := PredictLiveDrops(curves, flows)
	if maxOf(after) >= maxOf(before) {
		t.Fatalf("swap did not improve worst drop: before=%v after=%v", before, after)
	}
}

func TestPlanRebalanceRespectsThresholdAndMargin(t *testing.T) {
	curves := liveCurves()
	flows := []LiveFlow{
		{Worker: 0, Type: apps.MON, Socket: 0, RefsPerSec: 20e6},
		{Worker: 1, Type: apps.SYNMAX, Socket: 0, RefsPerSec: 300e6},
		{Worker: 2, Type: apps.MON, Socket: 1, RefsPerSec: 20e6},
		{Worker: 3, Type: apps.SYNMAX, Socket: 1, RefsPerSec: 300e6},
	}
	// Worst predicted drop is ~0.33; a threshold above it must suppress
	// any proposal.
	if _, _, ok := PlanRebalance(curves, flows, 0.9, 0.02); ok {
		t.Fatal("proposal above threshold")
	}
	// A margin larger than any attainable improvement must also suppress.
	if _, _, ok := PlanRebalance(curves, flows, 0.10, 10.0); ok {
		t.Fatal("proposal despite unattainable margin")
	}
	// An already-optimal placement proposes nothing.
	good := []LiveFlow{
		{Worker: 0, Type: apps.MON, Socket: 0, RefsPerSec: 20e6},
		{Worker: 2, Type: apps.MON, Socket: 0, RefsPerSec: 20e6},
		{Worker: 1, Type: apps.SYNMAX, Socket: 1, RefsPerSec: 300e6},
		{Worker: 3, Type: apps.SYNMAX, Socket: 1, RefsPerSec: 300e6},
	}
	if i, j, ok := PlanRebalance(curves, good, 0.10, 0.02); ok {
		t.Fatalf("proposal (%d,%d) for an already-separated placement", i, j)
	}
}

func TestRateControllerStep(t *testing.T) {
	rc := RateController{Limit: 100e6}
	// Over the limit: delay grows proportionally.
	next, throttled := rc.Step(200e6, 1000, 0)
	if !throttled || next == 0 {
		t.Fatalf("Step over limit: next=%d throttled=%v", next, throttled)
	}
	if want := uint32(1000*(200e6/100e6-1)) + 1; next != want {
		t.Fatalf("Step over limit: next=%d want %d", next, want)
	}
	// Within the slack band: no change.
	if n, th := rc.Step(103e6, 1000, 42); n != 42 || th {
		t.Fatalf("Step in slack band: next=%d throttled=%v", n, th)
	}
	if _, th := rc.Step(106e6, 1000, 42); !th {
		t.Fatalf("Step %.0f%% past the limit, beyond its %.0f%% slack, did not throttle", 6.0, ThrottleSlack*100)
	}
	// Under the limit: delay shrinks, eventually to zero.
	n, th := rc.Step(50e6, 1000, 100)
	if th || n != 0 {
		t.Fatalf("Step under limit with large give: next=%d throttled=%v", n, th)
	}
	n, _ = rc.Step(99e6, 1000, 100)
	if n >= 100 || n == 0 {
		t.Fatalf("Step slightly under limit: next=%d, want gentle decrease", n)
	}
	// Degenerate telemetry leaves the delay untouched.
	if n, th := rc.Step(200e6, 0, 7); n != 7 || th {
		t.Fatalf("Step with zero cycles/packet: next=%d throttled=%v", n, th)
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestPlanRebalanceSkipsPinnedFlows(t *testing.T) {
	curves := liveCurves()
	// Same pathological placement as above, but the socket-0 pair belongs
	// to a service chain and is pinned: the only swaps that would help
	// involve a pinned flow, so no proposal may come out — while the
	// pinned flows' refs must still drive the prediction.
	flows := []LiveFlow{
		{Worker: 0, Type: apps.MON, Socket: 0, RefsPerSec: 20e6, Pinned: true},
		{Worker: 1, Type: apps.SYNMAX, Socket: 0, RefsPerSec: 300e6, Pinned: true},
		{Worker: 2, Type: apps.MON, Socket: 1, RefsPerSec: 20e6},
		{Worker: 3, Type: apps.SYNMAX, Socket: 1, RefsPerSec: 300e6},
	}
	drops := PredictLiveDrops(curves, flows)
	if drops[0] == 0 {
		t.Fatal("pinned thrasher no longer weighs on its victim's prediction")
	}
	if _, _, ok := PlanRebalance(curves, flows, 0.10, 0.02); ok {
		t.Fatal("rebalance proposed a swap involving pinned flows")
	}
	// Unpin one side: the cross-socket victim/thrasher exchange is legal
	// again.
	flows[0].Pinned, flows[1].Pinned = false, false
	if _, _, ok := PlanRebalance(curves, flows, 0.10, 0.02); !ok {
		t.Fatal("no proposal after unpinning")
	}
}
