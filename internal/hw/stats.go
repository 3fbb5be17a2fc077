package hw

// FlowStats is the per-flow result of a measurement window: the raw
// counter deltas plus the rates the paper reports (packets/sec, cache
// refs/sec, hits/sec) and the per-packet characteristics of Table 1.
type FlowStats struct {
	Label   string
	Raw     Counters
	Seconds float64 // window length in virtual seconds
}

// NewFlowStats derives statistics from a counter delta over a window of
// elapsedCycles at the given clock.
func NewFlowStats(label string, delta Counters, elapsedCycles uint64, clockHz float64) FlowStats {
	return FlowStats{
		Label:   label,
		Raw:     delta,
		Seconds: float64(elapsedCycles) / clockHz,
	}
}

func (s FlowStats) perSec(v uint64) float64 {
	if s.Seconds == 0 {
		return 0
	}
	return float64(v) / s.Seconds
}

// Throughput returns packets per virtual second.
func (s FlowStats) Throughput() float64 { return s.perSec(s.Raw.Packets) }

// L3RefsPerSec returns last-level-cache references per virtual second —
// the paper's "cache refs/sec", the quantity that determines a workload's
// aggressiveness (Section 3.2, observation b).
func (s FlowStats) L3RefsPerSec() float64 { return s.perSec(s.Raw.L3Refs) }

// L3HitsPerSec returns last-level-cache hits per virtual second — the
// quantity that determines a flow's sensitivity to contention
// (Section 3.2, observation a).
func (s FlowStats) L3HitsPerSec() float64 { return s.perSec(s.Raw.L3Hits) }

// CPI returns cycles per instruction over the window.
func (s FlowStats) CPI() float64 { return s.Raw.CPI() }

// CyclesPerPacket returns core cycles consumed per processed packet.
func (s FlowStats) CyclesPerPacket() float64 { return s.Raw.PerPacket(s.Raw.Cycles) }

// L3RefsPerPacket returns L3 references per packet.
func (s FlowStats) L3RefsPerPacket() float64 { return s.Raw.PerPacket(s.Raw.L3Refs) }

// L3MissesPerPacket returns L3 misses per packet.
func (s FlowStats) L3MissesPerPacket() float64 { return s.Raw.PerPacket(s.Raw.L3Misses) }

// L3HitsPerPacket returns L3 hits per packet.
func (s FlowStats) L3HitsPerPacket() float64 { return s.Raw.PerPacket(s.Raw.L3Hits) }

// L2HitsPerPacket returns L2 hits per packet.
func (s FlowStats) L2HitsPerPacket() float64 { return s.Raw.PerPacket(s.Raw.L2Hits) }

// PerformanceDrop returns the relative throughput drop of s versus a solo
// baseline, the paper's central metric: (τs − τc)/τs.
func PerformanceDrop(solo, contended FlowStats) float64 {
	ts := solo.Throughput()
	if ts == 0 {
		return 0
	}
	return (ts - contended.Throughput()) / ts
}

// FuncStats summarises one attribution function's events over a window.
type FuncStats struct {
	Name     string
	Cycles   uint64
	L3Refs   uint64
	L3Hits   uint64
	L3Misses uint64
}

// FuncBreakdown returns per-function statistics for all registered
// functions that observed at least one event in the window.
func (s FlowStats) FuncBreakdown() []FuncStats {
	names := FuncNames()
	var out []FuncStats
	for id, name := range names {
		fc := s.Raw.Func[id]
		if fc.Cycles == 0 && fc.L3Refs == 0 {
			continue
		}
		out = append(out, FuncStats{
			Name:     name,
			Cycles:   fc.Cycles,
			L3Refs:   fc.L3Refs,
			L3Hits:   fc.L3Hits,
			L3Misses: fc.L3Misses,
		})
	}
	return out
}
