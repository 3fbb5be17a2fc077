package elements

import (
	goruntime "runtime"
	"slices"
	"testing"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/netpkt"
	"pktpredict/internal/trafficgen"
)

func newEnv() *click.Env { return &click.Env{Arena: mem.NewArena(0), Seed: 42} }

func newFD(t *testing.T, cfg FromDeviceConfig) *FromDevice {
	t.Helper()
	fd, err := NewFromDevice(newEnv(), cfg)
	if err != nil {
		t.Fatalf("NewFromDevice: %v", err)
	}
	return fd
}

func TestFromDeviceDeliversValidPackets(t *testing.T) {
	fd := newFD(t, FromDeviceConfig{})
	var ctx click.Ctx
	for i := 0; i < 5; i++ {
		p := fd.Pull(&ctx)
		if p == nil {
			t.Fatalf("packet %d: unexpected nil", i)
		}
		if _, err := netpkt.ParseIPv4(p.Data); err != nil {
			t.Fatalf("packet %d invalid: %v", i, err)
		}
		p.Recycler.Recycle(&ctx, p)
	}
}

func TestFromDeviceEmitsDMAAndDescriptorTrace(t *testing.T) {
	fd := newFD(t, FromDeviceConfig{})
	var ctx click.Ctx
	fd.Pull(&ctx)
	var dma, loads int
	for _, op := range ctx.Ops {
		switch op.Kind {
		case hw.OpDMAWrite:
			dma++
		case hw.OpLoad:
			loads++
		}
	}
	if dma != 1 { // 64-byte packet = 1 line
		t.Fatalf("DMA ops = %d, want 1", dma)
	}
	if loads == 0 {
		t.Fatal("descriptor/pool reads missing from trace")
	}
}

func TestFromDeviceRecyclesBuffers(t *testing.T) {
	fd := newFD(t, FromDeviceConfig{Buffers: 2})
	var ctx click.Ctx
	for i := 0; i < 100; i++ {
		p := fd.Pull(&ctx)
		p.Recycler.Recycle(&ctx, p)
		ctx.Ops = ctx.Ops[:0]
	}
	if fd.Pool().Available() != 2 {
		t.Fatalf("pool leaked: %d of 2 available", fd.Pool().Available())
	}
}

// TestFromDeviceReusesHeaders: a packet header belongs to its pool buffer,
// so a buffer's next packet is the same *click.Packet, reset — nothing a
// previous owner left on it (a trace mark, an enqueue stamp) survives.
func TestFromDeviceReusesHeaders(t *testing.T) {
	fd := newFD(t, FromDeviceConfig{Buffers: 1})
	var ctx click.Ctx
	first := fd.Pull(&ctx)
	first.Trace, first.Enq = 7, 99
	first.Recycler.Recycle(&ctx, first)
	again := fd.Pull(&ctx)
	if again != first {
		t.Fatal("the pool's one buffer came back under a new header")
	}
	if again.Trace != 0 || again.Enq != 0 || again.Recycler != click.Recycler(fd) || again.PoolIndex != 0 {
		t.Fatalf("recycled header not reset: %+v", *again)
	}
}

// TestUnpulledFromDeviceHoldsNoHostState: a source builds its generator
// on its first Pull and a pool buffer's bytes and header with the first
// take of its chunk, so one nobody pulls holds none of them and one pulled
// once holds one chunk — yet both reserve exactly the simulated extents,
// so everything allocated after them keeps its address.
func TestUnpulledFromDeviceHoldsNoHostState(t *testing.T) {
	cfg := FromDeviceConfig{Buffers: 1024, Traffic: trafficgen.Spec{Size: 1500, Flows: 4096}}
	hostBytes := func(f func()) uint64 {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		f()
		goruntime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	build := func() (fd *FromDevice, env *click.Env, bytes uint64) {
		env = newEnv()
		bytes = hostBytes(func() {
			var err error
			if fd, err = NewFromDevice(env, cfg); err != nil {
				t.Fatal(err)
			}
		})
		return fd, env, bytes
	}
	idle, idleEnv, idleBytes := build()
	pulled, pulledEnv, _ := build()
	var ctx click.Ctx
	pulledBytes := hostBytes(func() {
		p := pulled.Pull(&ctx)
		p.Recycler.Recycle(&ctx, p)
	})

	if idle.gen != nil || idleBytes > 64<<10 {
		t.Fatalf("never-pulled source holds generator %v and %d host bytes; want none", idle.gen != nil, idleBytes)
	}
	// An eager pool's slab alone was 1.5 MiB; one chunk is 16 buffers.
	if pulled.gen == nil || pulled.Pool().Available() != cfg.Buffers || pulledBytes < 1536 || pulledBytes > 64<<10 {
		t.Fatalf("pulled source: generator %v, %d of %d buffers free, %d host bytes; want one chunk's",
			pulled.gen != nil, pulled.Pool().Available(), cfg.Buffers, pulledBytes)
	}
	idleArena, pulledArena := idleEnv.Arena, pulledEnv.Arena
	if !slices.Equal(idleArena.Bindings(), pulledArena.Bindings()) || idleArena.Mark() != pulledArena.Mark() {
		t.Fatalf("arena extents differ: never pulled %v, pulled %v", idleArena.Bindings(), pulledArena.Bindings())
	}
	if a, b := idleArena.Alloc(64, 64), pulledArena.Alloc(64, 64); a != b {
		t.Fatalf("next allocation at %#x after a never-pulled source, %#x after a pulled one", a, b)
	}
}

func TestFromDeviceInvalidTraffic(t *testing.T) {
	_, err := NewFromDevice(newEnv(), FromDeviceConfig{Traffic: trafficgen.Spec{Size: 8}})
	if err == nil {
		t.Fatal("expected error for undersized packets")
	}
}

func mkPacket(t *testing.T) *click.Packet {
	t.Helper()
	b := make([]byte, 64)
	netpkt.WriteIPv4(b, netpkt.IPv4Header{TotalLen: 64, TTL: 64, Proto: netpkt.ProtoUDP, Src: 1, Dst: 2})
	return &click.Packet{Data: b, Addr: 0x10000}
}

func TestCheckIPHeaderAcceptsValid(t *testing.T) {
	el := &CheckIPHeader{}
	var ctx click.Ctx
	if v := el.Process(&ctx, mkPacket(t)); v != click.Continue {
		t.Fatalf("verdict = %v, want continue", v)
	}
}

func TestCheckIPHeaderDropsCorrupt(t *testing.T) {
	el := &CheckIPHeader{}
	var ctx click.Ctx
	p := mkPacket(t)
	p.Data[12] ^= 0xff // corrupt source, checksum now wrong
	if v := el.Process(&ctx, p); v != click.Drop {
		t.Fatalf("verdict = %v, want drop", v)
	}
}

func TestDecIPTTLDecrementsAndKeepsChecksumValid(t *testing.T) {
	el := &DecIPTTL{}
	var ctx click.Ctx
	p := mkPacket(t)
	if v := el.Process(&ctx, p); v != click.Continue {
		t.Fatalf("verdict = %v", v)
	}
	h, err := netpkt.ParseIPv4(p.Data)
	if err != nil {
		t.Fatalf("header invalid after DecIPTTL: %v", err)
	}
	if h.TTL != 63 {
		t.Fatalf("TTL = %d, want 63", h.TTL)
	}
}

func TestDecIPTTLDropsExpired(t *testing.T) {
	el := &DecIPTTL{}
	var ctx click.Ctx
	p := mkPacket(t)
	p.Data[8] = 1
	p.Data[10], p.Data[11] = 0, 0
	cs := netpkt.Checksum(p.Data[:20])
	p.Data[10], p.Data[11] = byte(cs>>8), byte(cs)
	if v := el.Process(&ctx, p); v != click.Drop {
		t.Fatalf("verdict = %v, want drop", v)
	}
}

func TestCounterCounts(t *testing.T) {
	c := NewCounter(newEnv())
	var ctx click.Ctx
	c.Process(&ctx, mkPacket(t))
	c.Process(&ctx, mkPacket(t))
	if c.Packets != 2 || c.Bytes != 128 {
		t.Fatalf("counter = %d pkts / %d bytes", c.Packets, c.Bytes)
	}
}

func TestDiscardDrops(t *testing.T) {
	d := &Discard{}
	var ctx click.Ctx
	if v := d.Process(&ctx, mkPacket(t)); v != click.Drop {
		t.Fatalf("verdict = %v", v)
	}
}

func TestControlEmitsConfiguredDelay(t *testing.T) {
	c := &Control{}
	c.SetDelay(100)
	var ctx click.Ctx
	c.Process(&ctx, mkPacket(t))
	if len(ctx.Ops) != 1 || ctx.Ops[0].Cycles != 100 {
		t.Fatalf("ops = %+v, want one 100-cycle compute", ctx.Ops)
	}
	c.SetDelay(0)
	ctx.Ops = ctx.Ops[:0]
	c.Process(&ctx, mkPacket(t))
	if len(ctx.Ops) != 0 {
		t.Fatal("zero delay must emit nothing")
	}
	if c.Delay() != 0 {
		t.Fatalf("Delay = %d", c.Delay())
	}
}

func TestToDeviceConsumes(t *testing.T) {
	td := NewToDevice(newEnv())
	var ctx click.Ctx
	if v := td.Process(&ctx, mkPacket(t)); v != click.Consume {
		t.Fatalf("verdict = %v, want consume", v)
	}
}

func TestConfigIntegration(t *testing.T) {
	cfg := `
		src :: FromDevice(SIZE 64, SEED 3);
		src -> CheckIPHeader -> DecIPTTL -> Counter -> ToDevice;
	`
	pl, err := click.ParseConfig(newEnv(), "ipfwd", cfg)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	for i := 0; i < 10; i++ {
		if len(pl.EmitPacket(nil)) == 0 {
			t.Fatalf("packet %d emitted no trace", i)
		}
	}
	if v := elementOf[*Counter](t, pl).Packets; v != 10 {
		t.Fatalf("Counter.Packets = %d", v)
	}
	if sent := pl.Nodes()[len(pl.Nodes())-1].Finished; sent != 10 {
		t.Fatalf("ToDevice finished %d, want 10 sent", sent)
	}
}

// walkN pulls n packets and walks each through a stage-0 runner of the
// uncut graph, the walker EmitPacket uses, returning the runner's
// packet-level outcome.
func walkN(t *testing.T, pl *click.Pipeline, n int) (finished, dropped uint64) {
	t.Helper()
	sr, err := pl.StageRunner(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		sr.Walk(pl.Source.Pull(sr.Ctx()), pl.HeadIndex(), false)
		sr.Ctx().Ops = sr.Ctx().Ops[:0]
	}
	return sr.Finished, sr.Dropped
}

// elementOf returns the pipeline's first element of type T.
func elementOf[T click.Element](t *testing.T, pl *click.Pipeline) T {
	t.Helper()
	for _, n := range pl.Nodes() {
		if v, ok := n.El.(T); ok {
			return v
		}
	}
	t.Fatalf("pipeline has no %T", *new(T))
	panic("unreachable")
}

func TestConfigControlElement(t *testing.T) {
	pl, err := click.ParseConfig(newEnv(), "t", `FromDevice -> Control -> ToDevice;`)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	elementOf[*Control](t, pl).SetDelay(50)
	if ops := pl.EmitPacket(nil); !slices.ContainsFunc(ops, func(op hw.Op) bool { return op.Kind == hw.OpCompute && op.Cycles == 50 }) {
		t.Fatal("Control delay not present in trace")
	}
}
