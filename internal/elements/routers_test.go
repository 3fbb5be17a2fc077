package elements

import (
	"testing"

	"pktpredict/internal/click"
	"pktpredict/internal/netpkt"
)

// mkProtoPacket builds a valid IPv4/TCP-or-UDP packet for router tests.
func mkProtoPacket(t *testing.T, proto uint8, dstPort uint16) *click.Packet {
	t.Helper()
	b := make([]byte, 64)
	netpkt.WriteIPv4(b, netpkt.IPv4Header{
		TotalLen: 64, TTL: 64, Proto: proto,
		Src: 0x0a000001, Dst: 0x0a000002,
	})
	b[netpkt.IPv4HeaderLen] = 0x30 // src port 0x3039
	b[netpkt.IPv4HeaderLen+1] = 0x39
	b[netpkt.IPv4HeaderLen+2] = byte(dstPort >> 8)
	b[netpkt.IPv4HeaderLen+3] = byte(dstPort)
	return &click.Packet{Data: b, Addr: 0x2000}
}

func TestClassifierMatchesBytesInOrder(t *testing.T) {
	// Port 0: protocol byte (offset 9) == TCP; port 1: catch-all.
	c, err := NewClassifier([]string{"9/06", "-"})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumOutputs() != 2 {
		t.Fatalf("NumOutputs = %d", c.NumOutputs())
	}
	var ctx click.Ctx
	if v := c.Process(&ctx, mkProtoPacket(t, netpkt.ProtoTCP, 80)); v != click.Output(0) {
		t.Fatalf("TCP packet routed to %v, want output(0)", v)
	}
	if v := c.Process(&ctx, mkProtoPacket(t, netpkt.ProtoUDP, 80)); v != click.Output(1) {
		t.Fatalf("UDP packet routed to %v, want output(1)", v)
	}
	if len(ctx.Ops) == 0 {
		t.Fatal("classifier emitted no trace")
	}
}

func TestClassifierWildcardsAndNoMatchDrop(t *testing.T) {
	// High nibble of the version/IHL byte must be 4, low nibble anything.
	c, err := NewClassifier([]string{"0/4?"})
	if err != nil {
		t.Fatal(err)
	}
	var ctx click.Ctx
	if v := c.Process(&ctx, mkProtoPacket(t, netpkt.ProtoTCP, 80)); v != click.Output(0) {
		t.Fatalf("IPv4 packet routed to %v", v)
	}
	bad := &click.Packet{Data: []byte{0x60, 0, 0, 0}, Addr: 0x2000}
	if v := c.Process(&ctx, bad); v != click.Drop {
		t.Fatalf("no-match packet got %v, want drop", v)
	}
}

func TestClassifierRejectsBadPatterns(t *testing.T) {
	for _, bad := range []string{"", "x/08", "9/0", "9/0g", "-1/08", "9"} {
		if _, err := NewClassifier([]string{bad}); err == nil {
			t.Fatalf("pattern %q accepted", bad)
		}
	}
	if _, err := NewClassifier(nil); err == nil {
		t.Fatal("empty pattern list accepted")
	}
}

func TestIPClassifierProtocolAndPortSplit(t *testing.T) {
	c, err := NewIPClassifier([]string{"tcp/80", "tcp", "udp", "-"})
	if err != nil {
		t.Fatal(err)
	}
	var ctx click.Ctx
	cases := []struct {
		proto uint8
		port  uint16
		want  click.Verdict
	}{
		{netpkt.ProtoTCP, 80, click.Output(0)},
		{netpkt.ProtoTCP, 443, click.Output(1)},
		{netpkt.ProtoUDP, 53, click.Output(2)},
		{netpkt.ProtoTCP + 50, 0, click.Output(3)},
	}
	for _, tc := range cases {
		if v := c.Process(&ctx, mkProtoPacket(t, tc.proto, tc.port)); v != tc.want {
			t.Fatalf("proto %d port %d routed to %v, want %v", tc.proto, tc.port, v, tc.want)
		}
	}
	// Unparseable packets drop.
	if v := c.Process(&ctx, &click.Packet{Data: []byte{1, 2, 3}, Addr: 0x2000}); v != click.Drop {
		t.Fatalf("bad packet got %v, want drop", v)
	}
}

func TestIPClassifierRejectsBadPatterns(t *testing.T) {
	for _, bad := range []string{"icmp", "tcp/0", "tcp/99999", "port 80", ""} {
		if _, err := NewIPClassifier([]string{bad}); err == nil {
			t.Fatalf("pattern %q accepted", bad)
		}
	}
}

func TestTeeAndRoundRobinSwitch(t *testing.T) {
	tee := NewTee(0)
	if tee.NumOutputs() != click.AdaptiveOutputs {
		t.Fatal("arg-less Tee must adapt to connected ports")
	}
	if NewTee(3).NumOutputs() != 3 {
		t.Fatal("Tee(3) must declare 3 ports")
	}
	var ctx click.Ctx
	if v := tee.Process(&ctx, mkProtoPacket(t, netpkt.ProtoTCP, 80)); v != click.Broadcast {
		t.Fatalf("Tee verdict %v, want broadcast", v)
	}

	// The switch learns its port count from the graph it is built in.
	pl, err := click.ParseConfig(newEnv(), "rr", `
		src :: FromDevice(SIZE 64);
		rr :: RoundRobinSwitch;
		src -> rr;
		rr[0] -> ToDevice;
		rr[1] -> ToDevice;
		rr[2] -> Discard;
	`)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	rr := elementOf[*RoundRobinSwitch](t, pl)
	for i := 0; i < 6; i++ {
		want := click.Output(i % 3)
		if v := rr.Process(&ctx, mkProtoPacket(t, netpkt.ProtoTCP, 80)); v != want {
			t.Fatalf("packet %d routed to %v, want %v", i, v, want)
		}
	}
}

// TestRoutersViaConfig exercises the registry path end to end: a
// protocol-split graph with a mirror tee, driven by FromDevice traffic.
func TestRoutersViaConfig(t *testing.T) {
	cfg := `
		src :: FromDevice(SIZE 64);
		cls :: IPClassifier(tcp, udp, -);
		tcp :: Counter;
		udp :: Counter;
		tee :: Tee;
		cnt :: Counter;
		src -> CheckIPHeader -> cls;
		cls[0] -> tcp -> tee;
		cls[1] -> udp -> tee;
		cls[2] -> Discard;
		tee[0] -> ToDevice;
		tee[1] -> cnt -> Discard;
	`
	pl, err := click.ParseConfig(newEnv(), "split", cfg)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	fin, drop := walkN(t, pl, 200)
	counted := map[string]uint64{}
	for _, n := range pl.Nodes() {
		if c, ok := n.El.(*Counter); ok {
			counted[n.Name] = c.Packets
		}
	}
	tcp, udp := counted["tcp"], counted["udp"]
	if tcp == 0 || udp == 0 || tcp+udp != 200 {
		t.Fatalf("protocol split %d/%d, want both nonzero summing to 200", tcp, udp)
	}
	if mirrored := counted["cnt"]; mirrored != 200 {
		t.Fatalf("tee delivered %d to the mirror, want 200", mirrored)
	}
	// Every packet finished on the wire branch; the mirror branch's
	// Discard shows up in per-branch node counters, not in the
	// packet-level outcome, so every packet received finished.
	if fin != 200 || drop != 0 {
		t.Fatalf("finished %d dropped %d, want 200/0", fin, drop)
	}
}
