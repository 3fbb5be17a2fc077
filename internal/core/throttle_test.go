package core

import (
	"testing"

	"pktpredict/internal/apps"
)

func TestContainmentValidation(t *testing.T) {
	sc := Scenario{
		Cfg:    testCfg(),
		Params: apps.Small(),
		Flows:  []FlowSpec{{Type: apps.IP, Core: 0, Domain: 0, Seed: 1, Control: true}},
	}
	res, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctl := res.Instances[0].Control
	if _, err := Containment(res.Engine, 5, ctl, 1e6, 0.0005, 1); err == nil {
		t.Fatal("bad flow index must fail")
	}
	if _, err := Containment(res.Engine, 0, nil, 1e6, 0.0005, 1); err == nil {
		t.Fatal("nil control must fail")
	}
	if _, err := Containment(res.Engine, 0, ctl, 0, 0.0005, 1); err == nil {
		t.Fatal("zero limit must fail")
	}
	if n := res.Engine.Flows[0].Core.Counters.Packets; n != 0 {
		t.Fatalf("a rejected containment ran the engine: %d packets", n)
	}
}

func TestContainmentClampsHiddenAggressor(t *testing.T) {
	if testing.Short() {
		t.Skip("long containment loop")
	}
	params := apps.Small()
	// Build the adversarial flow: FW for 500 packets, then SYN_MAX-like.
	sc := Scenario{
		Cfg:    testCfg(),
		Params: params,
		Flows:  []FlowSpec{{Type: apps.FW, Core: 0, Domain: 0, Seed: 1, HiddenTrigger: 500}},
	}
	res, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctl := res.Instances[0].Control
	if ctl == nil {
		t.Fatal("hidden aggressor must carry a control element")
	}

	// Profile the honest phase to establish the limit: run well below the
	// trigger.
	res.Engine.RunSeconds(0.0002)
	honest := res.Engine.Flows[0].Core.Counters
	if honest.Packets >= 500 {
		t.Fatalf("profiling window crossed the trigger (%d packets)", honest.Packets)
	}
	seconds := float64(honest.Cycles) / testCfg().ClockHz
	limit := float64(honest.L3Refs) / seconds

	samples, err := Containment(res.Engine, 0, ctl, limit, 0.0005, 30)
	if err != nil {
		t.Fatal(err)
	}

	// The flow must have turned aggressive at some point...
	peak := 0.0
	for _, s := range samples {
		if s.RefsPerSec > peak {
			peak = s.RefsPerSec
		}
	}
	if peak < limit*1.2 {
		t.Fatalf("aggression never manifested: peak %.0f vs limit %.0f", peak, limit)
	}
	// ...and the controller must clamp it back near the profiled rate.
	tail := samples[len(samples)-5:]
	for _, s := range tail {
		if s.RefsPerSec > limit*1.5 {
			t.Fatalf("flow still exceeds profiled rate at interval %d: %.0f vs limit %.0f (delay %d)",
				s.Interval, s.RefsPerSec, limit, s.DelayCycles)
		}
	}
	// The throttle must actually be engaged.
	if tail[len(tail)-1].DelayCycles == 0 {
		t.Fatal("control element never engaged")
	}
}

func TestContainmentLeavesHonestFlowAlone(t *testing.T) {
	params := apps.Small()
	sc := Scenario{
		Cfg:    testCfg(),
		Params: params,
		Flows:  []FlowSpec{{Type: apps.IP, Core: 0, Domain: 0, Seed: 1, Control: true}},
	}
	res, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Profile the honest flow at steady state: discard the cold-cache
	// warmup, as offline profiling does.
	res.Engine.RunSeconds(0.002)
	warm := res.Engine.Flows[0].Core.Counters
	res.Engine.RunSeconds(0.002)
	delta := res.Engine.Flows[0].Core.Counters.Sub(warm)
	limit := float64(delta.L3Refs) / (float64(delta.Cycles) / testCfg().ClockHz)

	samples, err := Containment(res.Engine, 0, res.Instances[0].Control, limit, 0.0005, 12)
	if err != nil {
		t.Fatal(err)
	}
	// An honest flow hovers at its profiled rate: any throttle engagement
	// must stay small relative to the flow's per-packet work, and the
	// observed rate must stay near the limit.
	cyclesPerPacket := float64(delta.Cycles) / float64(delta.Packets)
	last := samples[len(samples)-1]
	if float64(last.DelayCycles) > 0.10*cyclesPerPacket {
		t.Fatalf("honest flow ended up throttled: delay=%d vs %.0f cycles/packet",
			last.DelayCycles, cyclesPerPacket)
	}
	if last.RefsPerSec < limit*0.7 {
		t.Fatalf("honest flow lost throughput: %.0f vs limit %.0f", last.RefsPerSec, limit)
	}
}
