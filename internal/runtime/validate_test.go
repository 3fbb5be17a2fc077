package runtime

import (
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
)

// TestMaxQueueWaitTracksEngine tunes DefaultMaxQueueWait against the
// deterministic engine: it measures the p99 memory-controller queueing
// delay of a socket-saturating realistic mix under unbounded FCFS (the
// engine's regime) and fails if DefaultMaxQueueWait diverges from that
// observation by more than 2× in either direction — the finite-queue
// bound the concurrent runtime imposes must stay anchored to the queue
// waits the exact simulation actually produces.
func TestMaxQueueWaitTracksEngine(t *testing.T) {
	mix := []apps.FlowType{apps.IP, apps.IP, apps.MON, apps.VPN, apps.FW, apps.MON}
	cps := testCfg().CoresPerSocket
	if len(mix) > cps {
		mix = mix[:cps]
	}
	flows := make([]core.FlowSpec, len(mix))
	for i, typ := range mix {
		flows[i] = core.FlowSpec{Type: typ, Core: i, Domain: 0, Seed: core.SeedFor(typ, i)}
	}
	res, err := core.Scenario{Cfg: testCfg(), Params: apps.Small(), Flows: flows}.Build()
	if err != nil {
		t.Fatal(err)
	}
	res.Engine.MeasureWindow(0.0005, 0.002)
	mem := res.Engine.Platform.Sockets[0].Mem
	p99 := mem.WaitQuantile(0.99)
	if p99 == 0 {
		t.Fatal("saturating mix produced no memory-controller queueing")
	}
	if DefaultMaxQueueWait > 2*p99 {
		t.Fatalf("DefaultMaxQueueWait %d > 2× engine p99 wait %d: bound too loose, retune it", DefaultMaxQueueWait, p99)
	}
	if 2*DefaultMaxQueueWait < p99 {
		t.Fatalf("DefaultMaxQueueWait %d < ½ engine p99 wait %d: bound clips real queueing, retune it", DefaultMaxQueueWait, p99)
	}
}
