// Throttling: containing hidden aggressiveness (paper Section 4).
//
// A flow profiles as a harmless firewall, but after a trigger — say a
// specially crafted packet from an attacker — it starts hammering memory
// like SYN_MAX, degrading its co-runners far beyond what the operator
// provisioned for. The fix the paper demonstrates: monitor each flow's
// cache references per second with hardware counters and, when a flow
// exceeds its profiled rate, slow it down through a control element at
// the head of its pipeline.
package main

import (
	"fmt"
	"log"

	"pktpredict/internal/exp"
)

func main() {
	p := exp.Quick().NewPredictor() // interactive scale; run with Full() for paper scale

	fmt.Println("running the hidden-aggressor scenario with and without containment...")
	res, err := exp.RunThrottle(p)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nprofiled (honest) rate: %.1fM refs/sec\n", res.ProfiledRefsPerSec/1e6)
	fmt.Printf("uncontained aggressor peak: %.1fM refs/sec (%.1fx the profile)\n",
		res.PeakUncontained()/1e6, res.PeakUncontained()/res.ProfiledRefsPerSec)
	fmt.Printf("contained steady rate:      %.1fM refs/sec\n\n", res.FinalContained()/1e6)

	fmt.Printf("victim MON co-runner: %.0f pkts/sec uncontained -> %.0f contained (%.1f%% preserved)\n\n",
		res.VictimUncontainedTput, res.VictimContainedTput, res.VictimProtection()*100)

	fmt.Println("containment loop (refs/sec and control-element delay per interval):")
	for _, s := range res.Contained {
		bar := ""
		for i := 0; i < int(s.RefsPerSec/res.ProfiledRefsPerSec*20) && i < 60; i++ {
			bar += "#"
		}
		fmt.Printf("  t%02d %7.1fM %6d cyc %s\n", s.Interval, s.RefsPerSec/1e6, s.DelayCycles, bar)
	}
}
