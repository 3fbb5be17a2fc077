package hw

import (
	"testing"
	"unsafe"
)

// The attribution table's cells must each own a full cache line:
// neighbouring elements are written from the same core today, but the
// padding is what keeps the layout safe if tables are ever sharded.
func TestElemCellIsOneCacheLine(t *testing.T) {
	if s := unsafe.Sizeof(ElemCell{}); s != 64 {
		t.Fatalf("ElemCell is %d bytes, want 64", s)
	}
}

// Every cycle the core charges must land in exactly one element cell
// (slot 0 for untagged overhead), so table column sums reconcile with
// the core's counters — the invariant the runtime's window accounting
// builds on.
func TestElemAttributionReconcilesCounters(t *testing.T) {
	p := NewPlatform(smallConfig())
	c := p.Cores[0]
	table := make([]ElemCell, 3)
	c.SetElemTable(table)

	base := DomainBase(0)
	ops := []Op{
		{Kind: OpCompute, Cycles: 100, Instrs: 40, Elem: 1},
		{Kind: OpLoad, Addr: base + 0x40, Elem: 1},
		{Kind: OpStore, Addr: base + 0x80, Elem: 2},
		{Kind: OpLoadStream, Addr: base + 0x4000, Elem: 2},
		{Kind: OpCompute, Cycles: 7, Instrs: 3}, // untagged → overhead slot
		{Kind: OpDMAWrite, Addr: base + 0xc0},   // NIC work: no core cycles
	}
	c.ExecOps(ops)

	cost := make([]ElemCost, len(table))
	CopyCosts(cost, table)
	var cyc, refs uint64
	for _, cell := range cost {
		cyc += cell.Cycles
		refs += cell.L3Refs
	}
	cnt := c.Counters
	if cyc != cnt.Cycles {
		t.Fatalf("element cycles sum %d != core cycles %d", cyc, cnt.Cycles)
	}
	if refs != cnt.L3Refs {
		t.Fatalf("element L3 reference sum %d != core L3 references %d", refs, cnt.L3Refs)
	}
	if cost[0].Cycles != 7 {
		t.Fatalf("overhead slot charged %d cycles, want 7", cost[0].Cycles)
	}
	if cost[1].Cycles == 0 || cost[1].L3Refs == 0 {
		t.Fatalf("element 1 cell empty: %+v", cost[1])
	}
	if cost[2].L3Refs != 2 {
		t.Fatalf("element 2 saw %d L3 refs, want 2 (cold store + stream load)", cost[2].L3Refs)
	}

	// Removing the table must not disturb counting.
	c.SetElemTable(nil)
	before := table[0]
	c.ExecOps([]Op{{Kind: OpCompute, Cycles: 5, Instrs: 1}})
	if table[0] != before {
		t.Fatal("ops executed after SetElemTable(nil) still wrote the table")
	}
}

func BenchmarkExecOpsElemTable(b *testing.B) {
	p := NewPlatform(smallConfig())
	c := p.Cores[0]
	base := DomainBase(0)
	ops := []Op{
		{Kind: OpCompute, Cycles: 40, Instrs: 20, Elem: 1},
		{Kind: OpLoad, Addr: base + 0x40, Elem: 2},
		{Kind: OpStore, Addr: base + 0x80, Elem: 3},
	}
	for _, bc := range []struct {
		name  string
		table []ElemCell
	}{
		{"no-table", nil},
		{"table", make([]ElemCell, 8)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c.SetElemTable(bc.table)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.ExecOps(ops)
			}
		})
	}
}
