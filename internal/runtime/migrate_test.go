package runtime

import (
	"math"
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/hw"
)

// thrashStateConfig is the pathological thrash placement (each socket
// pairs a MON victim with a SYN_MAX thrasher) with curves anchored to
// measured rates so re-placement engages early, as in
// TestRuntimeReplacementSeparatesThrashers.
func thrashStateConfig(t *testing.T) Config {
	t.Helper()
	params := apps.Small()
	params.SynRegionBytes = testCfg().L3.SizeBytes / 2
	// The flow table must exceed the (1 MiB) test L3: a migrated working
	// set that fits the destination cache stops paying QPI on its own
	// once the cache warms, and the sustained remote-versus-copy trade
	// this test exercises only exists beyond that size.
	params.NetFlowEntries = 16384
	monSolo := soloStats(t, apps.MON, params)
	synSolo := soloStats(t, apps.SYNMAX, params)
	monRefs := monSolo.L3RefsPerSec()
	synRefs := synSolo.L3RefsPerSec()
	profiles := map[apps.FlowType]FlowProfile{
		apps.MON: {
			SoloPPS: monSolo.Throughput(), SoloRefsPerSec: monRefs,
			Curve: core.Curve{Target: apps.MON, Points: []core.CurvePoint{
				{CompetingRefsPerSec: 0, Drop: 0},
				{CompetingRefsPerSec: monRefs, Drop: 0.02},
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
		{Name: "mon-a", Type: apps.MON, Workers: 1},
		{Name: "thrash-a", Type: apps.SYNMAX, Workers: 1},
		{Name: "mon-b", Type: apps.MON, Workers: 1},
		{Name: "thrash-b", Type: apps.SYNMAX, Workers: 1},
	})
	cfg.Params = params
	cfg.Cores = []int{0, 1, cps, cps + 1}
	cfg.Profiles = profiles
	cfg.DropThreshold = 0.08
	return cfg
}

// monMigration returns the first recorded migration that moved a MON
// flow, plus that flow's side of the record.
func monMigration(t *testing.T, rep *Report) (m Migration, cp StateCopy, before, after float64) {
	t.Helper()
	for _, mig := range rep.Migrations {
		if strings.HasPrefix(mig.FlowA, "mon") {
			return mig, mig.CopyA, mig.RemotePerPktBeforeA, mig.RemotePerPktAfterA
		}
		if strings.HasPrefix(mig.FlowB, "mon") {
			return mig, mig.CopyB, mig.RemotePerPktBeforeB, mig.RemotePerPktAfterB
		}
	}
	t.Fatal("no migration moved a MON flow")
	return Migration{}, StateCopy{}, 0, 0
}

// steadyState averages one app's per-window throughput and remote
// references per packet over the last quarter of the control samples —
// the post-migration steady state, past both the copy and the
// destination cache's warm-up.
func steadyState(t *testing.T, samples []ControlSample, app string) (pps, remPerPkt float64) {
	t.Helper()
	n := 0
	for _, cs := range samples[len(samples)*3/4:] {
		for _, w := range cs.Workers {
			if w.App == app {
				pps += w.PPS
				remPerPkt += w.RemotePerPacket
				n++
			}
		}
	}
	if n == 0 {
		t.Fatalf("app %s absent from steady-state samples", app)
	}
	return pps / float64(n), remPerPkt / float64(n)
}

// TestRuntimeStateMigrationRestoresLocality is the paper-motivated
// acceptance scenario: after a cross-socket re-placement with state
// migration enabled, the moved flow's steady-state remote-reference rate
// returns to the pre-migration local baseline and MON goodput recovers;
// with it disabled the flow keeps paying QPI on every table reference.
// Packet conservation must hold across the migration either way.
func TestRuntimeStateMigrationRestoresLocality(t *testing.T) {
	if testing.Short() {
		// CI runs this test in its own -race step; -short keeps the
		// full-tree pass from running the two long simulations twice.
		t.Skip("state-migration scenario skipped in -short mode (runs in its dedicated CI step)")
	}
	const dur = 0.012

	run := func(migrate uint64) (*Report, []ControlSample) {
		cfg := thrashStateConfig(t)
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

	// With the threshold admitting every flow in the mix (MON ≈ 2.6 MiB,
	// SYN_MAX = half the test L3), state follows the flow.
	withCopy, copySamples := run(16 << 20)
	m, cp, before, after := monMigration(t, withCopy)
	if !cp.Copied || cp.Bytes == 0 || cp.Cycles == 0 || cp.Lines == 0 {
		t.Fatalf("state did not move with the flow: %+v", m)
	}
	if m.StateCopyCycles < cp.Cycles {
		t.Fatalf("StateCopyCycles %d < MON copy %d", m.StateCopyCycles, cp.Cycles)
	}
	if math.IsNaN(after) {
		t.Fatal("post-copy remote rate never measured; run too short")
	}
	if after > before+0.1 || after > 0.1 {
		t.Fatalf("post-copy remote refs/pkt %.3f did not return to the local baseline %.3f", after, before)
	}
	for _, w := range withCopy.Workers {
		if w.Type == apps.MON && w.StateSocket != w.Socket {
			t.Fatalf("MON state still homed to socket %d while running on %d: %+v",
				w.StateSocket, w.Socket, w)
		}
	}

	// With migration disabled the tables stay behind: the moved flow's
	// steady-state remote rate stays at its table-miss rate.
	noCopy, noCopySamples := run(0)
	m2, cp2, _, after2 := monMigration(t, noCopy)
	if cp2.Copied || m2.StateCopyCycles != 0 {
		t.Fatalf("state copied with MigrateState disabled: %+v", m2)
	}
	if math.IsNaN(after2) || after2 < 0.5 {
		t.Fatalf("flow without its state reports %.3f remote refs/pkt; expected sustained QPI traffic", after2)
	}
	remoteMON := 0
	for _, w := range noCopy.Workers {
		if w.Type == apps.MON && w.StateSocket >= 0 && w.StateSocket != w.Socket {
			remoteMON++
		}
	}
	if remoteMON == 0 {
		t.Fatalf("no MON worker reports remote state after migrating without a copy: %+v", noCopy.Workers)
	}

	// Steady state, past the copy and the cache warm-up: with its tables
	// local again the migrated flow's remote rate returns to the
	// pre-migration baseline (≈ 0) and its goodput recovers; without the
	// copy it keeps streaming table misses across the interconnect at a
	// measurably lower packet rate. Both runs migrated the same flow
	// (identical config apart from the threshold), so the comparison is
	// like for like.
	migApp := strings.SplitN(m.FlowA, "/", 2)[0]
	if !strings.HasPrefix(migApp, "mon") {
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

// TestRuntimeChainStageStateLocal: a staged chain allocates each stage's
// state in its own worker's NUMA domain — asserted through the address
// ranges (hw.DomainBase) of the recorded state bindings — even when the
// cut spans sockets. (TestRuntimeChainStaysPinned covers the companion
// property: pinned chain stages never trigger a state copy while
// re-placement shuffles their neighbours.)
func TestRuntimeChainStageStateLocal(t *testing.T) {
	params := withCustom(apps.Small(), "MONC", monStyleGraph(apps.Small()), map[string]int{"nf": 1})
	cps := testCfg().CoresPerSocket
	cfg := testConfig([]AppSpec{{Name: "chain", Type: "MONC", Workers: 1}})
	cfg.Params = params
	// Chain stage 0 on socket 0, stage 1 on socket 1: state must split.
	cfg.Cores = []int{0, cps}
	cfg.MigrateState = 64 << 20 // irrelevant for pinned stages; must stay inert
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Placement at build time: stage s's bindings live in a domain homed
	// to stage s's socket, inside that domain's address range.
	chain := r.flows[0]
	if len(chain.stages) < 2 || len(chain.state) == 0 {
		t.Fatalf("chain flow not staged or stateless: %+v", chain)
	}
	sockets := cfg.Cfg.Sockets
	perStage := map[int]uint64{}
	for _, b := range chain.state {
		d := b.Domain()
		if b.Base < hw.DomainBase(d) || b.Base >= hw.DomainBase(d+1) {
			t.Fatalf("binding %+v outside domain %d's address range", b, d)
		}
		wantSocket := b.Stage // stage 0 worker is on socket 0, stage 1 on socket 1
		if d%sockets != wantSocket {
			t.Fatalf("stage %d state %q homed to socket %d, want %d (domain %d)",
				b.Stage, b.Element, d%sockets, wantSocket, d)
		}
		perStage[b.Stage] += b.Size
	}
	if perStage[0] == 0 || perStage[1] == 0 {
		t.Fatalf("per-stage footprints %v: both stages must own state", perStage)
	}

	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	if len(rep.Migrations) != 0 {
		t.Fatalf("pinned chain migrated: %+v", rep.Migrations)
	}
	// Chain stage rows stay NUMA-local for the whole run.
	for _, w := range rep.Workers {
		if w.App != "chain" {
			continue
		}
		if w.StateBytes == 0 {
			t.Fatalf("chain stage %d reports no state: %+v", w.Stage, w)
		}
		if w.StateSocket != w.Socket {
			t.Fatalf("chain stage %d state on socket %d, worker on %d", w.Stage, w.StateSocket, w.Socket)
		}
	}
}
