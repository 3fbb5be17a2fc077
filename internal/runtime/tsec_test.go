package runtime

import (
	"math"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/obs"
)

// TestControlSampleTimeMonotonic pins the residual wall-time
// derivation: ControlSample.Time must be quantum-derived virtual
// seconds since measurement start — strictly monotonic and spaced exactly
// one control window apart (an earlier derivation walked a retained
// sample count, so evicting old samples folded the series back on itself).
func TestControlSampleTimeMonotonic(t *testing.T) {
	cfg := testConfig([]AppSpec{{Name: "ipfwd", Type: apps.IP, Workers: 1}})
	cfg.Profiles = map[apps.FlowType]FlowProfile{
		apps.IP: {SoloPPS: 1e6, SoloRefsPerSec: 1e6},
	}
	quantumSec := float64(cfg.QuantumCycles) / cfg.Cfg.ClockHz
	winSec := float64(cfg.ControlEvery) * quantumSec

	type point struct {
		q    int
		tsec float64
	}
	var seen []point
	var resTimes []float64
	cfg.OnWindow = func(cs ControlSample, res []obs.Residual) {
		seen = append(seen, point{cs.Quantum, cs.Time})
		for _, rr := range res {
			resTimes = append(resTimes, rr.Time)
		}
	}
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	if len(seen) < 3 {
		t.Fatalf("run produced %d windows; need at least 3", len(seen))
	}

	for i, p := range seen {
		if p.tsec <= 0 {
			t.Fatalf("window %d has non-positive time %v", i, p.tsec)
		}
		if i == 0 {
			continue
		}
		prev := seen[i-1]
		dt := p.tsec - prev.tsec
		wantDt := float64(p.q-prev.q) * quantumSec
		if math.Abs(dt-wantDt) > 1e-12 {
			t.Fatalf("window %d: Δt=%v for Δq=%d, want %v (quantum-inconsistent clock)",
				i, dt, p.q-prev.q, wantDt)
		}
		if dt < winSec-1e-12 {
			t.Fatalf("window %d: time advanced %v < one window %v", i, dt, winSec)
		}
	}

	// Residual timestamps ride the same clock.
	for i := 1; i < len(resTimes); i++ {
		if resTimes[i] < resTimes[i-1] {
			t.Fatalf("residual times regress at %d: %v -> %v", i, resTimes[i-1], resTimes[i])
		}
	}
}
