package exp

import (
	"fmt"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/hw"
	"pktpredict/internal/table"
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

// Table lists the solo profiles in the paper's column order.
func (r *Table1Result) Table() *table.Table {
	t := table.New("Table 1: characteristics of each type of packet processing during a solo run",
		"flow", "cpi", "l3_refs_per_sec", "l3_hits_per_sec",
		"cycles_per_packet", "l3_refs_per_packet", "l3_misses_per_packet", "l2_hits_per_packet").
		Format(fixed(2), "cpi", "l3_refs_per_packet", "l3_misses_per_packet", "l2_hits_per_packet").
		Format(func(f float64) string { return fmt.Sprintf("%.2fM", f/1e6) }, "l3_refs_per_sec", "l3_hits_per_sec").
		Format(fixed(0), "cycles_per_packet")
	for _, p := range r.Profiles {
		t.Add(p.Label, p.CPI(), p.L3RefsPerSec(), p.L3HitsPerSec(),
			p.CyclesPerPacket(), p.L3RefsPerPacket(), p.L3MissesPerPacket(), p.L2HitsPerPacket())
	}
	return t
}
