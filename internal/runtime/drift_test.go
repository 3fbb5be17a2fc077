package runtime

import (
	"math"
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/obs"
)

// profileWithElements builds one flow type's profile the way the
// acceptance scenario does: solo throughput from the deterministic
// engine plus per-element baselines from a solo runtime run.
func profileWithElements(t *testing.T, typ apps.FlowType, params apps.Params) FlowProfile {
	t.Helper()
	solo := soloStats(t, typ, params)
	base := testConfig(nil)
	elems, err := soloElementBaselines(base.Cfg, params, typ, base.Warmup, 0.002)
	if err != nil {
		t.Fatalf("element baselines for %s: %v", typ, err)
	}
	return FlowProfile{
		SoloPPS:        solo.Throughput(),
		SoloRefsPerSec: solo.L3RefsPerSec(),
		Elements:       elems,
	}
}

// TestProfileDriftNamesHiddenElement is the ISSUE's acceptance case: a
// flow that profiles as FW but carries a hidden trigger flips its
// behaviour mid-run. The per-element window costs must attribute the
// divergence to the specific element — the spliced-in aggressor, which
// did not exist when the offline profile was taken — and diagnose the
// residual as profile drift, not generic L3 contention.
func TestProfileDriftNamesHiddenElement(t *testing.T) {
	params := apps.Small()
	cfg := testConfig([]AppSpec{
		{Name: "rogue", Type: apps.FW, Workers: 1, HiddenTrigger: 200},
	})
	cfg.Profiles = map[apps.FlowType]FlowProfile{
		apps.FW: profileWithElements(t, apps.FW, params),
	}
	wins := CaptureWindows(&cfg)
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)

	var drifts int
	var evidence string
	for _, rr := range wins.Residuals {
		if rr.Cause == obs.CauseProfileDrift {
			drifts++
			evidence = rr.Evidence
		}
	}
	if drifts == 0 {
		t.Fatalf("no window diagnosed profile drift after the hidden trigger; residuals: %+v", wins.Residuals)
	}
	// The aggressor element is spliced in as a Syn synthetic element; the
	// diagnosis must name it, not some legitimate FW element.
	if !strings.Contains(evidence, "Syn") {
		t.Fatalf("drift evidence does not name the aggressor element: %q", evidence)
	}
}

// TestNoDriftOnUnperturbedMix: the same detector must stay quiet on a
// clean paper mix whose live behaviour matches its offline profiles —
// drift windows here would be false positives.
func TestNoDriftOnUnperturbedMix(t *testing.T) {
	params := apps.Small()
	cfg := testConfig([]AppSpec{
		{Name: "ipfwd", Type: apps.IP, Workers: 2},
		{Name: "mon", Type: apps.MON, Workers: 1},
	})
	cfg.Profiles = map[apps.FlowType]FlowProfile{
		apps.IP:  profileWithElements(t, apps.IP, params),
		apps.MON: profileWithElements(t, apps.MON, params),
	}
	wins := CaptureWindows(&cfg)
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	if len(wins.Residuals) == 0 {
		t.Fatal("profiled mix produced no residual series")
	}
	for _, rr := range wins.Residuals {
		if rr.Cause == obs.CauseProfileDrift {
			t.Fatalf("clean mix diagnosed drift at t=%.3fms for %s: %s", rr.Time*1e3, rr.App, rr.Evidence)
		}
	}
}

// TestLatencySLOBreachAndCompliance: an impossible latency objective
// records breaches and burn in the report; a generous one stays clean.
// Both report end-to-end percentiles.
func TestLatencySLOBreachAndCompliance(t *testing.T) {
	run := func(sloUS float64) AppReport {
		t.Helper()
		cfg := testConfig([]AppSpec{
			{Name: "ipfwd", Type: apps.IP, Workers: 1, SLOP99US: sloUS},
		})
		r, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run(0.004)
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, rep)
		for _, a := range rep.Apps {
			if a.Name == "ipfwd" {
				return a
			}
		}
		t.Fatal("report missing ipfwd")
		return AppReport{}
	}

	tight := run(0.001) // 1 ns: below any packet's processing time
	if tight.LatCount == 0 {
		t.Fatal("no latencies recorded")
	}
	if tight.LatP50US <= 0 || tight.LatP99US < tight.LatP50US || tight.LatP999US < tight.LatP99US {
		t.Fatalf("percentiles not ordered: p50=%v p99=%v p999=%v",
			tight.LatP50US, tight.LatP99US, tight.LatP999US)
	}
	if tight.SLOP99US != 0.001 {
		t.Fatalf("report SLO target = %v, want 0.001", tight.SLOP99US)
	}
	if tight.SLOBreaches == 0 {
		t.Fatal("impossible SLO recorded no breached windows")
	}
	if tight.SLOBurnRate <= 0 {
		t.Fatalf("impossible SLO burn rate = %v, want > 0", tight.SLOBurnRate)
	}

	loose := run(1e6) // one virtual second: unreachable by any backlog
	if loose.SLOBreaches != 0 || loose.SLOBurnRate != 0 {
		t.Fatalf("generous SLO breached: %d windows, burn %v", loose.SLOBreaches, loose.SLOBurnRate)
	}
	if loose.LatCount == 0 || loose.LatP99US <= 0 {
		t.Fatal("compliant run lost its latency histogram")
	}
}

// TestReportStringLatencyTable: the whole-run report renders the
// latency table when latencies were recorded, including SLO columns.
func TestReportStringLatencyTable(t *testing.T) {
	cfg := testConfig([]AppSpec{
		{Name: "ipfwd", Type: apps.IP, Workers: 1, SLOP99US: 0.001},
	})
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"p99_us", "slo_p99", "breaches"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report lacks latency column %q:\n%s", want, s)
		}
	}
	// A migration is three notes under the worker table; a rate not yet
	// measured after the swap reads n/a.
	rep.Migrations = append(rep.Migrations, Migration{
		Quantum: 7, WorkerA: 0, WorkerB: 1, FlowA: "ipfwd", FlowB: "mon", WorstBefore: 0.25,
		StateCopyCycles: 900, CopyA: StateCopy{Copied: true, Bytes: 4096, Lines: 64, Cycles: 900},
		RemotePerPktBeforeA: 1.5, RemotePerPktAfterA: math.NaN(), RemotePerPktAfterB: 0.25,
	})
	s = rep.String()
	for _, want := range []string{
		"migration @q7: worker 0 (ipfwd) <-> worker 1 (mon), worst predicted drop was 25.0%",
		"  state copy: 4096 B (64 lines) in 900 cycles",
		"  remote refs/pkt: ipfwd 1.50 -> n/a, mon 0.00 -> 0.25",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("report lacks migration note %q:\n%s", want, s)
		}
	}
}
