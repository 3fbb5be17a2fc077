// Dataplane example: assemble a custom concurrent runtime
// programmatically — two IP-forwarding replicas sharded by RSS flow hash
// plus one monitoring flow, executed on three worker goroutines (one per
// simulated core) — run it for a few virtual milliseconds, and read both
// the final report and the live telemetry the control loop sampled.
//
// For the shipped scenario files with offline-profiled prediction,
// admission control, and live re-placement, see cmd/dataplane.
package main

import (
	"fmt"
	"log"

	"pktpredict/internal/apps"
	"pktpredict/internal/hw"
	"pktpredict/internal/obs"
	"pktpredict/internal/runtime"
)

func main() {
	cfg := runtime.Config{
		Cfg:    hw.DefaultConfig(),
		Params: apps.Small(), // small tables keep the example instant
		Apps: []runtime.AppSpec{
			// Saturating IP forwarding, sharded across two cores: the
			// dispatcher hashes each generated packet's 5-tuple and all
			// packets of a transport flow land on the same replica.
			{Name: "ipfwd", Type: apps.IP, Workers: 2},
			// Monitoring at a fixed offered rate of 500k packets/sec.
			{Name: "mon", Type: apps.MON, Workers: 1, Rate: 500_000},
		},
		Warmup:   0.001,
		Scenario: "example",
	}
	// Every control window passes through OnWindow as it closes; keep the
	// last one, which is what a live dashboard would show.
	var last runtime.ControlSample
	cfg.OnWindow = func(cs runtime.ControlSample, _ []obs.Residual) { last = cs }
	r, err := runtime.NewRuntime(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := r.Run(0.01) // 10 virtual milliseconds
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(rep.String())

	fmt.Printf("final window (t=%.1fms):\n", last.Time*1e3)
	for _, w := range last.Workers {
		fmt.Printf("  worker %d (core %d, %s): %.2fM pps, %.1fM L3 refs/s, ring %d/%d\n",
			w.Worker, w.Core, w.App, w.PPS/1e6, w.RefsPerSec/1e6, w.RingDepth, w.RingCap)
	}
}
