package runtime

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/obs"
)

// idsGraph renders the IDS service chain at test scale: 64-byte packets
// (36 payload bytes), a signature fast path, the deliberately expensive
// entropy slow path, and the LRU ban table at the suspect tail. srcArgs
// appends traffic-shaping arguments to the source (", SIG_HIT 0.06, ..."
// — the generator and classifier share SIG_SEED 11 so injected
// signatures are the ones the matcher compiled). The entropy threshold
// sits at 4.5 bits: a 36-byte random payload's empirical entropy is
// ≈5.1 bits (log2 of the distinct-byte count), masked low-entropy
// payloads land well below.
func idsGraph(params apps.Params, srcArgs string) string {
	return fmt.Sprintf(`
		src :: FromDevice(SIZE 64, FLOWS %d, BUFFERS %d%s);
		chk :: CheckIPHeader;
		sig :: SignatureClassifier(SIG_SEED 11, PATTERNS 16);
		ent :: EntropyGate(THRESHOLD 4.5, WINDOW 512);
		bans :: BanTable(ENTRIES 16384);
		src -> chk -> sig;
		sig[0] -> ToDevice;
		sig[1] -> ent;
		ent[0] -> ToDevice;
		ent[1] -> bans;
		bans[0] -> ToDevice;
		bans[1] -> Discard;
	`, params.TrafficFlows, params.Buffers, srcArgs)
}

// idsShape is the baseline traffic mix for the IDS graph: 6% of packets
// carry an injected signature, half the rest are masked down to 2-bit
// symbols (the low-entropy population the gate passes).
const idsShape = ", SIG_HIT 0.06, SIG_COUNT 16, SIG_SEED 11, LOW_ENTROPY 0.5, LOW_ENTROPY_BITS 2"

// TestValidateIDSRuntimeDropsAgainstEngine extends the cross-validation
// suite to the IDS workload class: the custom graph is profiled offline
// on the deterministic engine exactly like the builtins (solo run plus
// drop-versus-competition curve), then runs concurrently next to a MON
// co-runner, and the observed drop must agree with the engine-derived
// prediction. The staged variant cuts the ban table onto its own worker
// across the interconnect and must home each stage's state in its own
// NUMA domain.
func TestValidateIDSRuntimeDropsAgainstEngine(t *testing.T) {
	if testing.Short() {
		// CI runs this suite in its own -race step; -short keeps the
		// full-tree pass from paying for the offline profiling twice.
		t.Skip("IDS validation skipped in -short mode (runs in its dedicated CI step)")
	}
	const (
		warmup = 0.0005
		window = 0.002
		dur    = 0.006
		tol    = 0.15
	)
	base := apps.Small()
	cps := testCfg().CoresPerSocket

	t.Run("parallel", func(t *testing.T) {
		params := withCustom(base, "IDS", idsGraph(base, idsShape), nil)
		profiles, err := ProfileFlows(testCfg(), params, warmup, window, []int{1600, 400, 100, 0},
			[]apps.FlowType{"IDS", apps.MON})
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig([]AppSpec{
			{Name: "ids", Type: "IDS", Workers: 2},
			{Name: "mon", Type: apps.MON, Workers: 1},
		})
		cfg.Params = params
		cfg.Profiles = profiles
		r, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run(dur)
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, rep)
		validated := 0
		for _, a := range rep.Apps {
			if a.SoloPPS == 0 {
				t.Fatalf("app %s ran without a solo profile", a.Name)
			}
			validated++
			if e := a.PredictionError(); math.Abs(e) > tol {
				t.Errorf("app %s (%s): observed drop %.1f%% vs engine prediction %.1f%% — error %+.1f%% exceeds ±%.0f%%",
					a.Name, a.Type, a.ObservedDrop*100, a.PredictedDrop*100, e*100, tol*100)
			}
		}
		if validated != 2 {
			t.Fatalf("validated %d apps, want 2", validated)
		}
	})

	t.Run("staged", func(t *testing.T) {
		params := withCustom(base, "IDS", idsGraph(base, idsShape), map[string]int{"bans": 1})
		cfg := testConfig([]AppSpec{{Name: "ids", Type: "IDS", Workers: 1}})
		cfg.Params = params
		// Stage 0 (source through entropy) on socket 0, the ban-table
		// stage on socket 1: state must split across the cut.
		cfg.Cores = []int{0, cps}
		cfg.MigrateState = 64 << 20 // staged chains are pinned; must stay inert
		r, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Placement at build time: the ban table is the chain's stage-1
		// state, homed in a domain on stage 1's socket.
		chain := r.flows[0]
		if len(chain.stages) < 2 || len(chain.state) == 0 {
			t.Fatalf("IDS chain flow not staged or stateless: %+v", chain)
		}
		sockets := cfg.Cfg.Sockets
		sawBans := false
		for _, b := range chain.state {
			if b.Element == "bans" {
				sawBans = true
				if b.Stage != 1 {
					t.Fatalf("ban table attributed to stage %d, want 1", b.Stage)
				}
			}
			if b.Domain()%sockets != b.Stage {
				t.Fatalf("stage %d state %q homed to socket %d, want %d",
					b.Stage, b.Element, b.Domain()%sockets, b.Stage)
			}
		}
		if !sawBans {
			t.Fatalf("no state binding for the ban table: %+v", chain.state)
		}

		rep, err := r.Run(dur)
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, rep)
		if len(rep.Migrations) != 0 {
			t.Fatalf("pinned IDS chain migrated: %+v", rep.Migrations)
		}
		a := rep.Apps[0]
		if a.Stages != 2 || a.Workers != 2 {
			t.Fatalf("app report stages/workers = %d/%d, want 2/2", a.Stages, a.Workers)
		}
		if a.Processed == 0 || a.Finished == 0 {
			t.Fatalf("staged IDS chain made no progress: %+v", a)
		}
		// Both stage workers ran and kept their state NUMA-local.
		for _, w := range rep.Workers {
			if w.Packets == 0 {
				t.Fatalf("stage worker %d processed nothing: %+v", w.Worker, w)
			}
			if w.StateBytes > 0 && w.StateSocket != w.Socket {
				t.Fatalf("stage %d state on socket %d, worker on %d", w.Stage, w.StateSocket, w.Socket)
			}
		}
	})
}

// idsBanGraph is the migration workload: the entropy gate's threshold is
// 0 bits so every packet reaches the ban table, whose 32768 line-sized
// entries (2 MiB) exceed the 1 MiB test L3 — a migrated working set that
// cannot hide in the destination cache, the same sizing rule as
// thrashStateConfig. No signatures are injected, so the match output
// stays dark and the per-packet reference stream is dominated by ban
// probes over the table.
func idsBanGraph(params apps.Params) string {
	return fmt.Sprintf(`
		src :: FromDevice(SIZE 64, FLOWS %d, BUFFERS %d);
		chk :: CheckIPHeader;
		sig :: SignatureClassifier(SIG_SEED 7, PATTERNS 8);
		ent :: EntropyGate(THRESHOLD 0, WINDOW 512);
		bans :: BanTable(ENTRIES 32768);
		src -> chk -> sig;
		sig[0] -> ent;
		sig[1] -> Discard;
		ent[0] -> ToDevice;
		ent[1] -> bans;
		bans[0] -> ToDevice;
		bans[1] -> Discard;
	`, params.TrafficFlows, params.Buffers)
}

// idsStateConfig pairs an IDS victim with a SYN_MAX thrasher on each
// socket, with curves anchored to measured rates so re-placement
// engages — thrashStateConfig with the ban-table workload as the victim.
func idsStateConfig(t *testing.T) Config {
	t.Helper()
	params := apps.Small()
	params.SynRegionBytes = testCfg().L3.SizeBytes / 2
	// The ban table's TOUCHED working set is one probed line per distinct
	// source, not the table's 2 MiB span: with the default 4096-flow
	// population the hot set is ~256 KiB and warms into the destination
	// L3 after an uncompensated migration, erasing the sustained
	// remote-versus-copy trade this test exercises. 16384 sources touch
	// ≈1 MiB of distinct lines — beyond the test L3 once two IDS flows
	// share a socket.
	params.TrafficFlows = 16384
	params = withCustom(params, "IDS", idsBanGraph(params), nil)
	idsSolo := soloStats(t, "IDS", params)
	synSolo := soloStats(t, apps.SYNMAX, params)
	idsRefs := idsSolo.L3RefsPerSec()
	synRefs := synSolo.L3RefsPerSec()
	profiles := map[apps.FlowType]FlowProfile{
		"IDS": {
			SoloPPS: idsSolo.Throughput(), SoloRefsPerSec: idsRefs,
			Curve: core.Curve{Target: "IDS", Points: []core.CurvePoint{
				{CompetingRefsPerSec: 0, Drop: 0},
				{CompetingRefsPerSec: idsRefs, Drop: 0.02},
				{CompetingRefsPerSec: synRefs / 4, Drop: 0.30},
				{CompetingRefsPerSec: 2 * synRefs, Drop: 0.45},
			}},
		},
		apps.SYNMAX: {
			SoloPPS: synSolo.Throughput(), SoloRefsPerSec: synRefs,
			Curve: core.Curve{Target: apps.SYNMAX, Points: []core.CurvePoint{
				{CompetingRefsPerSec: 0, Drop: 0},
				{CompetingRefsPerSec: 2 * synRefs, Drop: 0.02},
			}},
		},
	}
	cps := testCfg().CoresPerSocket
	cfg := testConfig([]AppSpec{
		{Name: "ids-a", Type: "IDS", Workers: 1},
		{Name: "thrash-a", Type: apps.SYNMAX, Workers: 1},
		{Name: "ids-b", Type: "IDS", Workers: 1},
		{Name: "thrash-b", Type: apps.SYNMAX, Workers: 1},
	})
	cfg.Params = params
	cfg.Cores = []int{0, 1, cps, cps + 1}
	cfg.Profiles = profiles
	cfg.DropThreshold = 0.08
	return cfg
}

// idsMigration returns the first recorded migration that moved an IDS
// flow, plus that flow's side of the record.
func idsMigration(t *testing.T, rep *Report) (m Migration, cp StateCopy, before, after float64) {
	t.Helper()
	for _, mig := range rep.Migrations {
		if strings.HasPrefix(mig.FlowA, "ids") {
			return mig, mig.CopyA, mig.RemotePerPktBeforeA, mig.RemotePerPktAfterA
		}
		if strings.HasPrefix(mig.FlowB, "ids") {
			return mig, mig.CopyB, mig.RemotePerPktBeforeB, mig.RemotePerPktAfterB
		}
	}
	t.Fatal("no migration moved an IDS flow")
	return Migration{}, StateCopy{}, 0, 0
}

// TestRuntimeBanTableStateMigration: the ban table participates in
// MIGRATE_STATE exactly like the NAT flow table. After a cross-socket
// re-placement with state migration enabled the copy is recorded with
// its measured cycles and the moved flow's steady-state remote-reference
// rate returns to the pre-migration local baseline; with migration
// disabled the table stays behind and every probe keeps crossing the
// interconnect.
func TestRuntimeBanTableStateMigration(t *testing.T) {
	if testing.Short() {
		// CI runs this test in its own -race step; -short keeps the
		// full-tree pass from running the two long simulations twice.
		t.Skip("ban-table migration scenario skipped in -short mode (runs in its dedicated CI step)")
	}
	const dur = 0.012

	run := func(migrate uint64) (*Report, []ControlSample) {
		cfg := idsStateConfig(t)
		cfg.MigrateState = migrate
		wins := CaptureWindows(&cfg)
		r, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run(dur)
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, rep)
		if len(rep.Migrations) == 0 {
			t.Fatal("re-placement never engaged")
		}
		return rep, wins.Samples
	}

	// Threshold admits the IDS state (2 MiB ban table plus the compiled
	// automaton): the tables follow the flow.
	withCopy, copySamples := run(16 << 20)
	m, cp, before, after := idsMigration(t, withCopy)
	if !cp.Copied || cp.Bytes == 0 || cp.Cycles == 0 || cp.Lines == 0 {
		t.Fatalf("IDS state did not move with the flow: %+v", m)
	}
	if cp.Bytes < 2<<20 {
		t.Fatalf("copy moved %d bytes; the 2 MiB ban table should dominate", cp.Bytes)
	}
	if m.StateCopyCycles < cp.Cycles {
		t.Fatalf("StateCopyCycles %d < IDS copy %d", m.StateCopyCycles, cp.Cycles)
	}
	if math.IsNaN(after) {
		t.Fatal("post-copy remote rate never measured; run too short")
	}
	if after > before+0.1 || after > 0.1 {
		t.Fatalf("post-copy remote refs/pkt %.3f did not return to the local baseline %.3f", after, before)
	}
	for _, w := range withCopy.Workers {
		if w.Type == "IDS" && w.StateSocket != w.Socket {
			t.Fatalf("IDS state still homed to socket %d while running on %d: %+v",
				w.StateSocket, w.Socket, w)
		}
	}

	// With migration disabled the ban table stays behind: the moved
	// flow's steady-state remote rate stays at its probe rate.
	noCopy, noCopySamples := run(0)
	m2, cp2, _, after2 := idsMigration(t, noCopy)
	if cp2.Copied || m2.StateCopyCycles != 0 {
		t.Fatalf("state copied with MigrateState disabled: %+v", m2)
	}
	if math.IsNaN(after2) || after2 < 0.5 {
		t.Fatalf("flow without its ban table reports %.3f remote refs/pkt; expected sustained QPI traffic", after2)
	}
	remoteIDS := 0
	for _, w := range noCopy.Workers {
		if w.Type == "IDS" && w.StateSocket >= 0 && w.StateSocket != w.Socket {
			remoteIDS++
		}
	}
	if remoteIDS == 0 {
		t.Fatalf("no IDS worker reports remote state after migrating without a copy: %+v", noCopy.Workers)
	}

	// Steady state, past the copy and the destination cache's warm-up:
	// with its tables local again the migrated flow's remote rate is back
	// at the baseline and goodput beats the no-copy run, which keeps
	// streaming ban probes across the interconnect.
	migApp := strings.SplitN(m.FlowA, "/", 2)[0]
	if !strings.HasPrefix(migApp, "ids") {
		migApp = strings.SplitN(m.FlowB, "/", 2)[0]
	}
	ppsCopy, remCopy := steadyState(t, copySamples, migApp)
	ppsNo, remNo := steadyState(t, noCopySamples, migApp)
	if remCopy > 0.15 {
		t.Fatalf("steady remote refs/pkt with copy = %.3f, want ≈ local baseline", remCopy)
	}
	if remNo < 0.4 {
		t.Fatalf("steady remote refs/pkt without copy = %.3f; the flow should still pay QPI", remNo)
	}
	if ppsCopy <= ppsNo {
		t.Fatalf("steady goodput with state copy %.0f pps ≤ without %.0f pps", ppsCopy, ppsNo)
	}
}

// TestProfileDriftNamesIDSDetector: the offline profile is taken under a
// 5% signature-hit mix; the live run carries the same graph but the
// generator shifts to a 70% hit rate mid-run (SIG_SHIFT), multiplying
// the suspect path's traffic. The residual diagnosis must attribute the
// divergence to the IDS detector whose behaviour changed — the ban table
// (or the entropy gate feeding it), not a generic contention cause.
func TestProfileDriftNamesIDSDetector(t *testing.T) {
	baseShape := ", SIG_HIT 0.05, SIG_COUNT 16, SIG_SEED 11"
	shiftShape := baseShape + ", SIG_SHIFT 0.7, SIG_SHIFT_AFTER 8000"
	profileParams := withCustom(apps.Small(), "IDS", idsGraph(apps.Small(), baseShape), nil)
	runParams := withCustom(apps.Small(), "IDS", idsGraph(apps.Small(), shiftShape), nil)

	// Profile the unshifted traffic — the operator's offline testbed
	// never saw the attack mix.
	prof := profileWithElements(t, "IDS", profileParams)

	cfg := testConfig([]AppSpec{{Name: "ids", Type: "IDS", Workers: 1}})
	cfg.Params = runParams
	cfg.Profiles = map[apps.FlowType]FlowProfile{"IDS": prof}
	wins := CaptureWindows(&cfg)
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.006)
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
		t.Fatalf("no window diagnosed profile drift after the signature-rate shift; residuals: %+v", wins.Residuals)
	}
	if !strings.Contains(evidence, "bans") && !strings.Contains(evidence, "ent") {
		t.Fatalf("drift evidence does not name an IDS detector element: %q", evidence)
	}
}
