// Package nat implements a stateful source NAT (Click's IPRewriter
// role): each packet's inner 5-tuple is looked up in a flow table; on a
// miss an external port is allocated and a mapping inserted; the packet
// then has its source address and port rewritten in place with an
// incremental checksum update. The flow table is the NAT's contended
// structure — like NetFlow's it is memory-intensive but cacheable, and
// the per-packet probe-allocate-rewrite trace is what the workload
// contributes to the shared cache. Like NetFlow's, it is a flowtab.Table,
// whose host side holds a mapping only for a slot some flow took.
package nat

import (
	"fmt"
	"strconv"
	"strings"

	"pktpredict/internal/click"
	"pktpredict/internal/flowtab"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/netpkt"
)

// fnNAT attributes NAT work in profiles.
var fnNAT = hw.RegisterFunc("nat_rewrite")

// firstPort is the lowest external port the allocator hands out.
const firstPort = 1024

// Table is the NAT flow table: a flowtab.Table from inner flow to
// external source port, whose full chains expire the least recently used
// binding as a production NAT expires mappings under port pressure, plus
// a port-allocator cursor on its own bookkeeping line.
type Table struct {
	tab      *flowtab.Table[netpkt.FiveTuple, uint16]
	portLine hw.Addr // port-allocator cursor line
	extIP    uint32
	nextPort uint32
}

// NewTable builds a table with capacity slots (rounded up to a power of
// two) allocated from arena, translating to external address extIP.
func NewTable(arena *mem.Arena, capacity int, extIP uint32) *Table {
	return &Table{
		tab:      flowtab.New[netpkt.FiveTuple, uint16](arena, capacity),
		portLine: arena.Alloc(hw.LineSize, hw.LineSize),
		extIP:    extIP,
		nextPort: firstPort,
	}
}

// ExtIP returns the external address mappings translate to.
func (t *Table) ExtIP() uint32 { return t.extIP }

// Taken returns the number of active mappings.
func (t *Table) Taken() int { return t.tab.Taken() }

// allocPort hands out the next external port, cycling through the
// dynamic range; the cursor lives on its own line, so every allocation
// is a load-modify-store of NAT bookkeeping state.
//
//dataplane:stamped emits under the caller's Ctx bracket (called from Translate)
func (t *Table) allocPort(ctx *click.Ctx) uint16 {
	ctx.Load(t.portLine)
	ctx.Store(t.portLine)
	port := uint16(t.nextPort)
	t.nextPort++
	if t.nextPort > 65535 {
		t.nextPort = firstPort
	}
	return port
}

// Translate returns the external source port bound to key, creating the
// binding on first sight. It emits the probe trace (one load per probed
// entry), the allocator trace on a miss, and the entry store for the
// touched mapping. created reports whether a new binding was made.
//
//dataplane:stamped emits under the caller's Ctx bracket (called from Element.Process)
func (t *Table) Translate(ctx *click.Ctx, key netpkt.FiveTuple) (port uint16, created bool) {
	old := ctx.SetFunc(fnNAT)
	defer ctx.SetFunc(old)

	ctx.Compute(30, 28) // tuple hash
	p, slot, hit := t.tab.Find(ctx, key.Hash(), key)
	if !hit {
		*p = t.allocPort(ctx)
	}
	ctx.Store(t.tab.Lines().Addr(slot))
	return *p, !hit
}

// rewrite costs beyond the table work: field stores and the incremental
// checksum arithmetic.
const (
	rewriteCompute = 24
	rewriteInstrs  = 22
)

// Element is the IPRewriter click element: stateful source NAT.
type Element struct {
	Table *Table
}

// Process implements click.Element: look up (or create) the packet's
// binding and rewrite its source address and port in place.
func (e *Element) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	ft, err := netpkt.ExtractFiveTuple(p.Data)
	if err != nil {
		return click.Drop
	}
	port, _ := e.Table.Translate(ctx, ft)
	old := ctx.SetFunc(fnNAT)
	if err := netpkt.RewriteSrc(p.Data, e.Table.extIP, port); err != nil {
		ctx.SetFunc(old)
		return click.Drop
	}
	// The rewrite dirties the header's cache line(s).
	ctx.LoadBytes(p.Addr, netpkt.IPv4HeaderLen+2)
	ctx.StoreBytes(p.Addr, netpkt.IPv4HeaderLen+2)
	ctx.Compute(rewriteCompute, rewriteInstrs)
	ctx.SetFunc(old)
	return click.Continue
}

// ParseAddr converts a dotted-quad IPv4 address to its uint32 form.
func ParseAddr(s string) (uint32, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("nat: %q is not a dotted-quad IPv4 address", s)
	}
	var addr uint32
	for _, part := range parts {
		n, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("nat: %q is not a dotted-quad IPv4 address", s)
		}
		addr = addr<<8 | uint32(n)
	}
	return addr, nil
}

// rewriterArgs is what IPRewriter(...) decodes into.
type rewriterArgs struct {
	capacity int
	extIP    uint32
}

func init() {
	click.Register("IPRewriter", []click.Key[rewriterArgs]{
		click.Int("CAPACITY", "[1,)", func(a *rewriterArgs) *int { return &a.capacity }),
		click.NewKey("EXTIP", "", func(a *rewriterArgs) *uint32 { return &a.extIP }, ParseAddr, netpkt.AddrString),
	}, func(*click.Env) rewriterArgs {
		return rewriterArgs{capacity: 65536, extIP: 0xC6336401} // 198.51.100.1
	}, func(env *click.Env, a rewriterArgs) (interface{}, error) {
		return &Element{Table: NewTable(env.Arena, a.capacity, a.extIP)}, nil
	})
}
