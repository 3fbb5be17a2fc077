package exp

import (
	"fmt"
	"strings"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/hw"
)

// Table1Result reproduces Table 1: the characteristics of each packet-
// processing type during a solo run — offline profiling, the role
// OProfile plays in the paper. Each row is labelled with its flow type.
type Table1Result struct {
	Profiles []hw.FlowStats
}

// RunTable1 profiles each realistic flow type solo, through p's memo.
func RunTable1(p *core.Predictor) (*Table1Result, error) {
	out := &Table1Result{}
	for _, t := range apps.RealisticTypes {
		st, err := p.Solo(t)
		if err != nil {
			return nil, fmt.Errorf("exp: table1 %s: %w", t, err)
		}
		st.Label = string(t)
		out.Profiles = append(out.Profiles, st)
	}
	return out, nil
}

// Table renders solo profiles as an aligned text table in Table 1's
// column order.
func Table(profiles []hw.FlowStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %8s %14s %14s %10s %10s %10s %10s\n",
		"Flow", "CPI", "L3refs/s(M)", "L3hits/s(M)", "cyc/pkt", "refs/pkt", "miss/pkt", "L2hit/pkt")
	for _, p := range profiles {
		fmt.Fprintf(&b, "%-8s %8.2f %14.2f %14.2f %10.0f %10.2f %10.2f %10.2f\n",
			p.Label, p.CPI(), p.L3RefsPerSec()/1e6, p.L3HitsPerSec()/1e6,
			p.CyclesPerPacket(), p.L3RefsPerPacket(), p.L3MissesPerPacket(), p.L2HitsPerPacket())
	}
	return b.String()
}

// String renders the table in the paper's column order.
func (r *Table1Result) String() string {
	return "Table 1: characteristics of each type of packet processing during a solo run\n" + Table(r.Profiles)
}

// CSV renders the table as comma-separated values.
func (r *Table1Result) CSV() string {
	var c csvBuilder
	c.row("flow", "cpi", "l3_refs_per_sec", "l3_hits_per_sec",
		"cycles_per_packet", "l3_refs_per_packet", "l3_misses_per_packet", "l2_hits_per_packet")
	for _, p := range r.Profiles {
		c.row(p.Label, p.CPI(), p.L3RefsPerSec(), p.L3HitsPerSec(),
			p.CyclesPerPacket(), p.L3RefsPerPacket(), p.L3MissesPerPacket(), p.L2HitsPerPacket())
	}
	return c.String()
}
