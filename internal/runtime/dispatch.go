package runtime

import (
	"math"

	"pktpredict/internal/trafficgen"
)

// appState is the dispatcher's view of one flow group: its traffic
// generator, the rings of the group's flow instances, and offered-load
// accounting. The dispatcher plays the NIC's role — it shards the
// group's single generated stream across the group's receive rings by
// RSS flow hash, so all packets of one transport flow always reach the
// same flow instance regardless of where that instance currently runs.
type appState struct {
	spec  AppSpec
	index int

	gen     trafficgen.Generator // nil for synthetic (self-driving) flows
	scratch []byte
	pktSize int
	rate    float64 // offered packets per virtual second; 0 = saturate
	flows   []*flow

	offered  uint64
	enqueued uint64
	nicDrops uint64
	primed   bool

	// Paced emission uses absolute accounting: pacedQuanta counts the
	// active (on-phase) quanta since measurement start and pacedEmitted
	// the packets emitted against them, so each barrier emits exactly
	// floor(rate × quantumSec × pacedQuanta) − pacedEmitted. One
	// multiplication per barrier means no rounding residue accumulates —
	// emission matches rate × active-virtual-time exactly however long
	// the run. The previous fractional-carry accumulator drifted:
	// summing rate × quantumSec one quantum at a time compounds float
	// rounding over millions of barriers, and its residue survived
	// measurement resets. pacedEmitted is kept apart from offered
	// because offered runs from process start and resetMeasurement
	// credits ring backlog into it.
	pacedQuanta  uint64
	pacedEmitted uint64

	// Latency-SLO evaluation state (see Runtime.evalLatency): control
	// windows in which the window p99 exceeded the declared target, and
	// the most recent non-empty window's burn rate. predSum/predCnt
	// accumulate the group's workers' live predicted drops (see gather).
	sloBreaches int
	sloBurn     float64
	predSum     float64
	predCnt     int
}

// burstActive reports whether quantum q falls in the app's on-phase.
func (a *appState) burstActive(q int) bool {
	if a.spec.BurstOn <= 0 || a.spec.BurstOff <= 0 {
		return true
	}
	return q%(a.spec.BurstOn+a.spec.BurstOff) < a.spec.BurstOn
}

// emitBurst generates n packets and offers each to its RSS ring,
// stamped with the barrier's virtual time (the enqueue side of the
// packet's end-to-end latency). Packets are staged per ring and the
// whole burst is published with one tail store per ring — the batched
// NIC behaviour: descriptors land as a burst, not one cursor write per
// packet.
func (a *appState) emitBurst(n int, stamp uint64) {
	for i := 0; i < n; i++ {
		sz := a.gen.Next(a.scratch)
		a.offered++
		ring := a.flows[trafficgen.RSSQueue(trafficgen.RSSHash(a.scratch[:sz]), len(a.flows))].ring
		if ring.Stage(a.scratch[:sz], stamp) {
			a.enqueued++
		} else {
			a.nicDrops++
		}
	}
	for _, f := range a.flows {
		f.ring.Commit()
	}
}

// dispatcher feeds every rate-driven flow group at barrier points. It
// runs in the control goroutine while all workers are parked, so ring
// pushes never race with pops; the SPSC discipline additionally keeps the
// rings correct if dispatch ever moves off the barrier.
type dispatcher struct {
	apps          []*appState
	quantumSec    float64
	quantumCycles uint64
}

// enqueue generates quantum q's worth of traffic for every app. Every
// packet enqueued here is stamped with the barrier's virtual time — all
// cores sit at exactly q × quantum cycles when the dispatcher runs — so
// the worker that later finishes the packet can compute its end-to-end
// latency from its own core clock.
func (d *dispatcher) enqueue(q int) {
	stamp := uint64(q) * d.quantumCycles
	for _, a := range d.apps {
		if a.gen == nil || !a.burstActive(q) {
			continue
		}
		if a.rate <= 0 {
			// Saturating source with credit-based backpressure: after an
			// initial fill, each barrier replenishes exactly the packets
			// the workers consumed since the last one. Offered load then
			// tracks what the flow group can actually absorb instead of
			// re-offering (and re-dropping) the same overload every
			// quantum, so offered-versus-processed accounting stays
			// meaningful under saturation. RSS still decides the target
			// ring per packet, so a skewed hash can tail-drop on one ring
			// while another has room — as on real multi-queue NICs.
			budget := 0
			for _, f := range a.flows {
				consumed := f.ring.Consumed()
				budget += int(consumed - f.lastConsumed)
				f.lastConsumed = consumed
				if !a.primed {
					budget += f.ring.Cap() - f.ring.Len()
				}
			}
			a.primed = true
			a.emitBurst(budget, stamp)
			continue
		}
		// Absolute paced accounting: the cumulative target after this
		// active quantum is floor(rate × quantumSec × pacedQuanta); emit
		// exactly the gap to it as one burst.
		a.pacedQuanta++
		target := uint64(math.Floor(a.rate * d.quantumSec * float64(a.pacedQuanta)))
		if target > a.pacedEmitted {
			n := int(target - a.pacedEmitted)
			a.pacedEmitted = target
			a.emitBurst(n, stamp)
		}
	}
}
