package runtime

import (
	"math"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/obs"
)

// TestControlSampleTimeMonotonic pins the residual wall-time
// derivation: ControlSample.Time must be quantum-derived virtual
// seconds since measurement start — strictly monotonic, spaced exactly
// one control window apart, and immune to the retention ring evicting old
// samples (the prior derivation walked the retained sample count, so
// eviction made the series fold back on itself).
func TestControlSampleTimeMonotonic(t *testing.T) {
	cfg := testConfig([]AppSpec{{Name: "ipfwd", Type: apps.IP, Workers: 1}})
	const retention = 3 // force eviction well before the run ends
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
	r.SetRetention(retention)
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	if len(seen) <= retention {
		t.Fatalf("run produced %d windows; need more than the retention of %d", len(seen), retention)
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

	// The retained tail matches the live series — eviction must not
	// rewrite times.
	tail := r.Stats().Samples()
	if len(tail) != retention {
		t.Fatalf("retained %d samples, want %d", len(tail), retention)
	}
	off := len(seen) - len(tail)
	for i, cs := range tail {
		if want := seen[off+i]; cs.Time != want.tsec || cs.Quantum != want.q {
			t.Fatalf("retained sample %d = (q%d, %v), want (q%d, %v)",
				i, cs.Quantum, cs.Time, want.q, want.tsec)
		}
	}
}
