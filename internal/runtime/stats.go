package runtime

import (
	"fmt"
	"math"

	"pktpredict/internal/apps"
	"pktpredict/internal/table"
)

// WorkerTelemetry is one worker's live measurements over the last control
// window: the per-core counters an operator's monitoring agent would read
// from hardware counters, plus queue state only the dataplane knows.
type WorkerTelemetry struct {
	Worker int
	Core   int
	Socket int
	App    string
	Type   apps.FlowType

	// Stage/Stages identify the worker's slice of its flow's chain (0/1
	// for run-to-completion flows). For a later stage,
	// RingDepth/RingCap describe its hand-off ring, not the receive ring.
	Stage  int
	Stages int

	PPS              float64 // packets processed per virtual second
	RefsPerSec       float64 // L3 references per virtual second (the aggressiveness proxy)
	HitsPerSec       float64 // L3 hits per virtual second (the sensitivity proxy)
	RemoteRefsPerSec float64 // L3 misses served by a remote NUMA domain, per second
	RemotePerPacket  float64 // remote references per processed packet (the locality signal)
	CyclesPerPacket  float64
	BatchOccupancy   float64 // mean batch fill fraction [0,1]
	ClippedBatches   uint64  // batch polls cut short by the quantum boundary, excluded from occupancy
	RingDepth        int     // input-ring occupancy at sample time
	RingCap          int
	DelayCycles      uint32 // admission-control delay currently applied
	Throttled        bool   // admission control tightened the delay this window
	PredictedDrop    float64
}

// ControlSample is one control interval's full telemetry snapshot, as
// Config.OnWindow receives it.
type ControlSample struct {
	Quantum int     // quantum index at which the sample was taken
	Time    float64 // virtual seconds since measurement start
	Workers []WorkerTelemetry
}

// Migration records one live re-placement: two workers exchanged their
// flows across sockets because the predicted drop exceeded the threshold.
type Migration struct {
	Quantum     int
	WorkerA     int
	WorkerB     int
	FlowA       string
	FlowB       string
	WorstBefore float64 // worst predicted drop before the swap

	// State movement. CopyA describes FlowA's tables moving to WorkerB's
	// socket, CopyB the reverse; both are zero-valued when
	// Config.MigrateState left the state behind (disabled, footprint
	// above the threshold, or already local). StateCopyCycles totals both
	// copies' downtime on the destination cores.
	StateCopyCycles uint64
	CopyA, CopyB    StateCopy

	// Remote references per packet for each moved flow over the control
	// window preceding the swap (on its old worker) and the first full
	// window after it (on its new worker) — the pre- versus post-copy
	// locality evidence: with a state copy the "after" rate returns to
	// the local baseline, without one it jumps to roughly the flow's
	// table references per packet. A rate is NaN while unmeasured: the
	// Before fields when the preceding window carried no traffic, the
	// After fields until a post-swap window with traffic lands (a run
	// may end first).
	RemotePerPktBeforeA, RemotePerPktAfterA float64
	RemotePerPktBeforeB, RemotePerPktAfterB float64
}

// StateCopy describes one direction of a migration's state movement.
type StateCopy struct {
	Copied bool
	Bytes  uint64 // live state footprint moved
	Lines  int    // cache lines streamed across the interconnect
	Cycles uint64 // copy downtime charged to the destination core
}

// WorkerReport summarises one worker over the whole measurement window.
// Packets and PPS cover only the final flow binding (baselines snapshot
// at migration time keep another app's work out of them); TotalPackets
// counts everything the core executed in the window, and RefsPerSec is
// likewise whole-window — it is what the core's hardware counter saw.
type WorkerReport struct {
	Worker int
	Core   int
	Socket int
	App    string
	Type   apps.FlowType
	Stage  int // stage index within the flow's chain
	Stages int // chain length (1 for run-to-completion flows)

	Packets         uint64 // packets processed under the final binding
	TotalPackets    uint64 // packets processed across all bindings
	PPS             float64
	RefsPerSec      float64
	RemotePerPacket float64 // whole-window remote references per packet
	BatchOccupancy  float64
	ClippedBatches  uint64 // batch polls cut short by the quantum boundary, excluded from occupancy
	DelayCycles     uint32

	// StateBytes is the bound flow's (or chain stage's) live state
	// footprint; StateSocket is the socket currently homing it, -1 when
	// the worker holds no flow or the flow allocated no state. A
	// StateSocket differing from Socket means every table reference
	// crosses the interconnect — the situation state migration exists to
	// repair.
	StateBytes  uint64
	StateSocket int
}

// AppReport summarises one flow group over the measurement window and
// holds the scenario's headline comparison: observed throughput drop
// against the drop the paper's method predicts from the live telemetry.
// Its JSON keys are those of the sweep report's app rows, which embed it.
type AppReport struct {
	Name    string        `json:"app"`
	Type    apps.FlowType `json:"type"`
	Workers int           `json:"workers"` // workers the group occupies (replicas × stages)
	Stages  int           `json:"stages"`  // 1 for run-to-completion flows

	Offered  uint64 `json:"offered"`   // packets the traffic source generated
	Enqueued uint64 `json:"enqueued"`  // packets accepted into input rings
	NICDrops uint64 `json:"nic_drops"` // packets tail-dropped at full rings

	Processed   uint64 `json:"processed"`    // packets that entered a worker's pipeline
	PipeDropped uint64 `json:"pipe_dropped"` // packets dropped inside the pipeline (firewall etc.)
	Finished    uint64 `json:"finished"`     // packets that completed the pipeline
	InFlight    uint64 `json:"in_flight"`    // packets still inside chain hand-off rings at window end
	// CutDropped counts packet *branches* lost at a stage cut: a chain
	// hands each packet across a cut at most once, so a Tee broadcasting
	// several branches over the same cut loses the extras. Non-zero means
	// the graph's cut placement discards traffic the run-to-completion
	// deployment would deliver — a configuration smell worth surfacing.
	CutDropped uint64 `json:"cut_dropped"`

	ObservedPPS  float64 `json:"observed_pps"`   // aggregate processed/sec across the group's workers
	GoodputPPS   float64 `json:"goodput_pps"`    // aggregate finished/sec — useful throughput, drops excluded
	PerWorkerPPS float64 `json:"per_worker_pps"` // processed/sec per occupied core (a chain divides by its stages too)
	SoloPPS      float64 `json:"solo_pps"`       // offline solo baseline per worker (0 when unprofiled)

	ObservedDrop  float64 `json:"observed_drop"`  // 1 − PerWorkerPPS/expected (expected caps at offered rate)
	PredictedDrop float64 `json:"predicted_drop"` // time-averaged per-worker curve prediction
	LossRate      float64 `json:"loss_rate"`      // NICDrops/Offered

	// End-to-end latency over the measurement window: ring-enqueue to
	// walk-termination, in virtual microseconds, estimated from the
	// group's merged log-bucket histogram (zero when no packet went
	// through a ring — synthetic self-driving flows have no enqueue
	// side). LatCount is the number of recorded latencies.
	LatCount  uint64  `json:"lat_count,omitempty"`
	LatP50US  float64 `json:"lat_p50_us,omitempty"`
	LatP99US  float64 `json:"lat_p99_us,omitempty"`
	LatP999US float64 `json:"lat_p999_us,omitempty"`

	// Latency-SLO outcome: SLOP99US echoes the declared target (0 when
	// none), SLOBreaches counts control windows whose window p99 exceeded
	// it, and SLOBurnRate is the last window's burn rate — the fraction
	// of window packets over the target relative to the 1% budget a p99
	// target implies (1.0 = burning exactly the budget).
	SLOP99US    float64 `json:"slo_p99_us,omitempty"`
	SLOBreaches int     `json:"slo_breaches,omitempty"`
	SLOBurnRate float64 `json:"slo_burn_rate,omitempty"`

	// Branches holds per-node terminal counters for branching pipelines
	// (empty for linear chains): where the group's packets ended their
	// walk, aggregated across replicas in graph order.
	Branches []BranchReport `json:"branches,omitempty"`
}

// BranchReport is one graph node's terminal accounting over the window.
type BranchReport struct {
	Node     string `json:"node"`
	Dropped  uint64 `json:"dropped"`
	Finished uint64 `json:"finished"`
}

// PredictionError returns observed minus predicted drop, the paper's
// accuracy metric, meaningful only when a solo profile was supplied.
func (a AppReport) PredictionError() float64 {
	if a.SoloPPS == 0 {
		return 0
	}
	return a.ObservedDrop - a.PredictedDrop
}

// CheckConservation verifies the group's packet-accounting identities:
// every offered packet was either enqueued or tail-dropped, and every
// processed packet reached exactly one terminal (finished or dropped in
// the pipeline) unless it is still crossing a chain's hand-off ring.
// Telemetry that fails these identities is miscounting somewhere.
func (a AppReport) CheckConservation() error {
	if a.Offered != a.Enqueued+a.NICDrops {
		return fmt.Errorf("app %s: offered %d != enqueued %d + nic drops %d",
			a.Name, a.Offered, a.Enqueued, a.NICDrops)
	}
	if a.Processed != a.Finished+a.PipeDropped+a.InFlight {
		return fmt.Errorf("app %s: processed %d != finished %d + pipe-dropped %d + in-flight %d",
			a.Name, a.Processed, a.Finished, a.PipeDropped, a.InFlight)
	}
	return nil
}

// Report is the whole-run summary of one runtime execution. Per-window
// data is not kept here: it leaves through Config.OnWindow and the
// metrics registry as each window closes.
type Report struct {
	Scenario string
	Duration float64 // measured virtual seconds (warmup excluded)
	Quanta   int
	Workers  []WorkerReport
	Apps     []AppReport

	Migrations     []Migration
	ThrottleEvents int // control windows in which admission tightened a delay
}

// fmtRemRate renders a migration-window remote rate, NaN as unmeasured.
func fmtRemRate(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", v)
}

// TotalProcessed sums processed packets across all flow groups.
func (r *Report) TotalProcessed() uint64 {
	var n uint64
	for _, a := range r.Apps {
		n += a.Processed
	}
	return n
}

// String renders the report as text tables: workers, apps and, when any
// packet recorded a latency, latencies. Migrations are the worker table's
// notes; cut losses and branch terminals are the app table's.
func (r *Report) String() string {
	f0 := func(v float64) string { return fmt.Sprintf("%.0f", v) }
	f1 := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	f2 := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	workers := table.New(fmt.Sprintf("scenario %s: %d workers, %.1f ms virtual, %d quanta, %d migrations, %d throttle events",
		r.Scenario, len(r.Workers), r.Duration*1e3, r.Quanta, len(r.Migrations), r.ThrottleEvents),
		"wkr", "core", "socket", "app", "type", "stage", "pkts", "pps", "occ", "delay", "rem/pkt", "state").
		Format(f0, "pps").Format(f2, "occ", "rem/pkt")
	for _, w := range r.Workers {
		stage, state := "-", "-"
		if w.Stages > 1 {
			stage = fmt.Sprintf("%d/%d", w.Stage, w.Stages)
		}
		if w.StateSocket >= 0 {
			state = fmt.Sprintf("%dB@s%d", w.StateBytes, w.StateSocket)
			if w.StateSocket != w.Socket {
				state += "!" // state remote to the executing socket
			}
		}
		workers.Add(w.Worker, w.Core, w.Socket, w.App, w.Type, stage, w.Packets, w.PPS,
			w.BatchOccupancy, w.DelayCycles, w.RemotePerPacket, state)
	}
	for _, m := range r.Migrations {
		workers.Note("migration @q%d: worker %d (%s) <-> worker %d (%s), worst predicted drop was %.1f%%",
			m.Quantum, m.WorkerA, m.FlowA, m.WorkerB, m.FlowB, m.WorstBefore*100)
		if m.StateCopyCycles > 0 {
			workers.Note("  state copy: %d B (%d lines) in %d cycles",
				m.CopyA.Bytes+m.CopyB.Bytes, m.CopyA.Lines+m.CopyB.Lines, m.StateCopyCycles)
		}
		workers.Note("  remote refs/pkt: %s %s -> %s, %s %s -> %s",
			m.FlowA, fmtRemRate(m.RemotePerPktBeforeA), fmtRemRate(m.RemotePerPktAfterA),
			m.FlowB, fmtRemRate(m.RemotePerPktBeforeB), fmtRemRate(m.RemotePerPktAfterB))
	}

	// An empty title renders as the blank line between tables.
	appT := table.New("", "app", "type", "n", "processed", "finished", "nicdrop", "pps/worker", "solo", "obs_drop", "pred_drop", "err").
		Format(f0, "pps/worker", "solo")
	lat := table.New("", "app", "lat_count", "p50_us", "p99_us", "p999_us", "slo_p99", "breaches", "burn").
		Format(f1, "p50_us", "p99_us", "p999_us")
	anyLat := false
	for _, a := range r.Apps {
		obs, pred, errs := "-", "-", "-"
		if a.SoloPPS > 0 {
			obs = fmt.Sprintf("%.1f%%", a.ObservedDrop*100)
			pred = fmt.Sprintf("%.1f%%", a.PredictedDrop*100)
			errs = fmt.Sprintf("%+.1f%%", a.PredictionError()*100)
		}
		appT.Add(a.Name, a.Type, a.Workers, a.Processed, a.Finished, a.NICDrops, a.PerWorkerPPS, a.SoloPPS, obs, pred, errs)
		if a.CutDropped > 0 {
			appT.Note("%s: %d packet branches lost at stage cuts (a cut hands each packet over once; re-cut the graph so broadcasts stay within a stage)",
				a.Name, a.CutDropped)
		}
		if len(a.Branches) > 0 {
			appT.Note("%s branches:", a.Name)
		}
		for _, br := range a.Branches {
			if br.Dropped > 0 || br.Finished > 0 {
				appT.Note("  %-16s finished %10d  dropped %10d", br.Node, br.Finished, br.Dropped)
			}
		}
		if a.LatCount > 0 {
			slo, breaches, burn := "-", "-", "-"
			if a.SLOP99US > 0 {
				slo = fmt.Sprintf("%.1fus", a.SLOP99US)
				breaches = fmt.Sprint(a.SLOBreaches)
				burn = fmt.Sprintf("%.2f", a.SLOBurnRate)
			}
			lat.Add(a.Name, a.LatCount, a.LatP50US, a.LatP99US, a.LatP999US, slo, breaches, burn)
			anyLat = true
		}
	}
	out := workers.String() + appT.String()
	if anyLat {
		out += lat.String()
	}
	return out
}
