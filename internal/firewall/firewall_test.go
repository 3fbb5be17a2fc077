package firewall

import (
	"testing"
	"testing/quick"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/netpkt"
	"pktpredict/internal/rng"
)

func tcpTuple(src, dst uint32, port uint16) netpkt.FiveTuple {
	return netpkt.FiveTuple{Src: src, Dst: dst, SrcPort: 9999, DstPort: port, Proto: netpkt.ProtoTCP}
}

func TestRuleMatching(t *testing.T) {
	r := Rule{
		Src: 0x0a000000, SrcMask: 0xff000000,
		Dst: 0xc0a80000, DstMask: 0xffff0000,
		PortLo: 80, PortHi: 443,
		Proto: netpkt.ProtoTCP,
		Act:   Deny,
	}
	cases := []struct {
		ft   netpkt.FiveTuple
		want bool
	}{
		{tcpTuple(0x0a000001, 0xc0a80101, 80), true},
		{tcpTuple(0x0a000001, 0xc0a80101, 443), true},
		{tcpTuple(0x0b000001, 0xc0a80101, 80), false},  // wrong src net
		{tcpTuple(0x0a000001, 0xc0a90101, 80), false},  // wrong dst net
		{tcpTuple(0x0a000001, 0xc0a80101, 444), false}, // port above range
		{tcpTuple(0x0a000001, 0xc0a80101, 79), false},  // port below range
		{netpkt.FiveTuple{Src: 0x0a000001, Dst: 0xc0a80101, DstPort: 80, Proto: netpkt.ProtoUDP}, false},
	}
	for i, c := range cases {
		if got := r.Matches(c.ft); got != c.want {
			t.Fatalf("case %d: Matches = %v, want %v", i, got, c.want)
		}
	}
}

func TestWildcardProtocol(t *testing.T) {
	r := Rule{SrcMask: 0, DstMask: 0, PortLo: 0, PortHi: 65535, Proto: 0}
	if !r.Matches(tcpTuple(1, 2, 80)) {
		t.Fatal("wildcard rule must match TCP")
	}
	udp := netpkt.FiveTuple{Proto: netpkt.ProtoUDP, DstPort: 53}
	if !r.Matches(udp) {
		t.Fatal("wildcard rule must match UDP")
	}
}

func TestFirstMatchWins(t *testing.T) {
	arena := mem.NewArena(0)
	rules := []Rule{
		{SrcMask: 0, DstMask: 0, PortLo: 80, PortHi: 80, Act: Allow},
		{SrcMask: 0, DstMask: 0, PortLo: 0, PortHi: 65535, Act: Deny},
	}
	f := NewFilter(arena, rules)
	if act, ok := f.CheckPlain(tcpTuple(1, 2, 80)); !ok || act != Allow {
		t.Fatalf("port 80 = %v/%v, want Allow (first rule)", act, ok)
	}
	if act, ok := f.CheckPlain(tcpTuple(1, 2, 81)); !ok || act != Deny {
		t.Fatalf("port 81 = %v/%v, want Deny (second rule)", act, ok)
	}
}

func TestDefaultAllowOnNoMatch(t *testing.T) {
	arena := mem.NewArena(0)
	f := NewFilter(arena, NoMatchRules(100, 1))
	act, matched := f.CheckPlain(tcpTuple(0x0a000001, 0xc0a80101, 80))
	if matched || act != Allow {
		t.Fatalf("no-match traffic = %v/%v, want Allow/false", act, matched)
	}
}

// Property: NoMatchRules never match any tuple — the invariant the
// paper's FW experiment depends on (every packet scans all rules).
func TestNoMatchRulesNeverMatchQuick(t *testing.T) {
	rules := NoMatchRules(200, 3)
	f := func(src, dst uint32, sport, dport uint16, udp bool) bool {
		proto := uint8(netpkt.ProtoTCP)
		if udp {
			proto = netpkt.ProtoUDP
		}
		ft := netpkt.FiveTuple{Src: src, Dst: dst, SrcPort: sport, DstPort: dport, Proto: proto}
		for _, r := range rules {
			if r.Matches(ft) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// rulesChecked counts the rules a trace evaluated: Check emits one
// compute op per rule.
func rulesChecked(ops []hw.Op) int {
	n := 0
	for _, op := range ops {
		if op.Kind == hw.OpCompute {
			n++
		}
	}
	return n
}

func TestCheckScansAllRulesOnNoMatch(t *testing.T) {
	arena := mem.NewArena(0)
	f := NewFilter(arena, NoMatchRules(1000, 1))
	var ctx click.Ctx
	f.Check(&ctx, tcpTuple(1, 2, 80))
	if n := rulesChecked(ctx.Ops); n != 1000 {
		t.Fatalf("checked %d rules, want 1000", n)
	}
	// 1000 rules at 32 B each, 2 per line → 500 distinct line loads.
	loads := 0
	for _, op := range ctx.Ops {
		if op.Kind == hw.OpLoad {
			loads++
		}
	}
	if loads != 500 {
		t.Fatalf("trace has %d line loads, want 500", loads)
	}
}

func TestCheckStopsAtMatch(t *testing.T) {
	arena := mem.NewArena(0)
	rules := NoMatchRules(100, 1)
	rules[9] = Rule{SrcMask: 0, DstMask: 0, PortLo: 0, PortHi: 65535, Act: Deny}
	f := NewFilter(arena, rules)
	var ctx click.Ctx
	act, matched := f.Check(&ctx, tcpTuple(1, 2, 80))
	if !matched || act != Deny {
		t.Fatalf("= %v/%v, want Deny/true", act, matched)
	}
	if n := rulesChecked(ctx.Ops); n != 10 {
		t.Fatalf("checked %d rules, want 10 (stop at first match)", n)
	}
}

func TestRulesFitInL2(t *testing.T) {
	arena := mem.NewArena(0)
	f := NewFilter(arena, NoMatchRules(1000, 1))
	if f.SimBytes() > 256<<10 {
		t.Fatalf("1000 rules occupy %d bytes; paper requires them to fit the 256KB L2", f.SimBytes())
	}
}

func TestElementDeniesAndAllows(t *testing.T) {
	arena := mem.NewArena(0)
	rules := []Rule{{SrcMask: 0, DstMask: 0, PortLo: 22, PortHi: 22, Proto: 0, Act: Deny}}
	el := &Element{Filter: NewFilter(arena, rules)}
	var ctx click.Ctx

	mk := func(port uint16) *click.Packet {
		b := make([]byte, 64)
		netpkt.WriteIPv4(b, netpkt.IPv4Header{TotalLen: 64, TTL: 64, Proto: netpkt.ProtoTCP, Src: 1, Dst: 2})
		b[netpkt.IPv4HeaderLen+2] = byte(port >> 8)
		b[netpkt.IPv4HeaderLen+3] = byte(port)
		return &click.Packet{Data: b, Addr: 0x8000}
	}
	if v := el.Process(&ctx, mk(22)); v != click.Drop {
		t.Fatalf("port 22 verdict = %v, want drop", v)
	}
	if v := el.Process(&ctx, mk(80)); v != click.Continue {
		t.Fatalf("port 80 verdict = %v, want continue", v)
	}
}

func TestEmptyFilterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFilter(mem.NewArena(0), nil)
}

func TestNoMatchRulesDeterministic(t *testing.T) {
	a := NoMatchRules(50, 9)
	b := NoMatchRules(50, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rule %d differs between equal seeds", i)
		}
	}
	r := rng.New(1)
	_ = r
}
