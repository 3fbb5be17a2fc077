// Package elements provides the standard Click-style elements the
// workloads are composed from: device endpoints (FromDevice/ToDevice),
// IP-forwarding-path elements (CheckIPHeader, DecIPTTL), and utility
// elements (Counter, Discard, Control).
//
// Each element performs its real work on real packet bytes and emits the
// matching memory/compute trace through the click.Ctx, so its cache
// footprint in the simulated hierarchy follows from what it actually does.
package elements

import (
	"fmt"

	"pktpredict/internal/click"
	"pktpredict/internal/dpi"
	"pktpredict/internal/hw"
	"pktpredict/internal/netpkt"
	"pktpredict/internal/nic"
	"pktpredict/internal/trafficgen"
)

// Attribution functions, matching the paper's OProfile symbol names where
// the paper names them (Figure 7).
var (
	fnFromDevice = hw.RegisterFunc("from_device")
	fnCheckIP    = hw.RegisterFunc("check_ip_header")
	fnDecTTL     = hw.RegisterFunc("dec_ip_ttl")
	fnToDevice   = hw.RegisterFunc("to_device")
	fnControl    = hw.RegisterFunc("control_element")
)

// Compute costs in cycles/instructions for the fixed per-packet work each
// element does beyond its memory accesses. They approximate the
// instruction counts of the corresponding Click elements on the paper's
// platform and are deliberately centralised for calibration.
//
// The receive cost is split so batching can amortize it: the poll part
// (checking the RX ring, setting up a burst) once per burst of the
// scenario's BATCH packets, the per-packet part for every packet. Their
// sum, 60 cycles / 50 instrs, is the unbatched cost (BATCH 1 or unset).
const (
	rxPollCompute  = 20
	rxPollInstrs   = 15
	rxCompute      = 40
	rxInstrs       = 35
	checkIPCompute = 60
	checkIPInstrs  = 50
	decTTLCompute  = 25
	decTTLInstrs   = 20
	txCompute      = 45
	txInstrs       = 40
)

// FromDevice is a pipeline source: it models one NIC receive queue. Each
// Pull takes a buffer from the per-core pool, writes a packet into it (the
// NIC's DMA, delivered into the L3 via direct cache access), consumes an
// RX descriptor, and hands the packet to the pipeline. The packet comes
// from the source's generator on the engine, or from its Feed on the
// concurrent runtime, where every worker receives through one FromDevice
// fed by the input ring of the flow it runs: one receive trace for both.
//
// Construction reserves the source's simulated memory; its host state —
// the generator or the feed's copy buffer, then each pool chunk's buffers
// and headers — is built by the Pull that first needs it. A source nobody
// pulls (a graph's own source on the runtime, a worker that runs only
// later stages of chains) holds none of it.
type FromDevice struct {
	pool      *nic.BufferPool
	ring      *nic.Ring
	gen       trafficgen.Generator
	spec      trafficgen.Spec
	feed      Feed
	scratch   []byte // the feed's next packet, popped before a buffer is taken
	batch     int    // packets per RX poll; the poll cost amortizes over it
	sincePoll int
}

// Feed is a receive queue a FromDevice pulls from in place of its generator
// (PopStaged copies a packet out; Release frees the slots taken).
type Feed interface {
	PopStaged(dst []byte) (n int, stamp uint64, ok bool)
	Release() bool
}

// FromDeviceConfig configures a FromDevice source.
type FromDeviceConfig struct {
	Traffic trafficgen.Spec
	// Buffers is the pool size (default 512, Click's per-core default).
	Buffers int
}

// NewFromDevice builds the source, reserving its pool and ring in env's
// arena so all per-flow state is NUMA-local. It polls the RX ring once per
// env.RxBatch packets (every packet when that is below 1).
func NewFromDevice(env *click.Env, cfg FromDeviceConfig) (*FromDevice, error) {
	if cfg.Buffers == 0 {
		cfg.Buffers = 512
	}
	spec := cfg.Traffic
	if spec.Seed == 0 {
		spec.Seed = env.Seed
	}
	if spec.Size == 0 {
		spec.Size = trafficgen.MinPacketSize
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &FromDevice{
		// Buffers are rounded up to the next 512-byte boundary like real
		// socket buffers, so distinct packets never share lines.
		pool:  nic.NewBufferPool(env.Arena, cfg.Buffers, (spec.Size+511)&^511),
		ring:  nic.NewRing(env.Arena, 256), // the RX descriptor ring
		spec:  spec,
		batch: max(env.RxBatch, 1),
	}, nil
}

// Spec returns the source's resolved traffic spec (seed and size defaults
// applied): the concurrent runtime generates a graph flow's traffic from a
// copy, so it matches what the offline profile measured.
func (fd *FromDevice) Spec() trafficgen.Spec { return fd.spec }

// SetFeed makes the source pull from f instead of its generator (nil: no
// feed). A fed source must have its feed from its first Pull on.
func (fd *FromDevice) SetFeed(f Feed) { fd.feed = f }

// Pull implements click.Source. A fed source returns nil while its feed
// is empty.
//
//dataplane:stamped source-side DMA and ring ops are flow overhead (slot 0) by design
//dataplane:hotpath
func (fd *FromDevice) Pull(ctx *click.Ctx) *click.Packet {
	n, enq := 0, uint64(0)
	if fd.feed != nil {
		if fd.scratch == nil {
			fd.scratch = make([]byte, fd.spec.Size) //dataplane:allow hotpathalloc the first Pull builds the source's host state, once per source
		}
		var ok bool
		if n, enq, ok = fd.feed.PopStaged(fd.scratch); !ok {
			return nil
		}
	} else if fd.gen == nil {
		fd.gen = trafficgen.New(fd.spec)
	}
	old := ctx.SetFunc(fnFromDevice)
	defer ctx.SetFunc(old)

	// A buffer and its header have one owner between Get and Recycle; Get
	// resets the header, dropping the last packet's Trace and Enq.
	p := fd.pool.Get(ctx)
	if fd.feed != nil {
		copy(p.Data, fd.scratch[:n])
	} else {
		n = fd.gen.Next(p.Data)
	}
	p.Data, p.Recycler, p.Enq = p.Data[:n], fd, enq
	ctx.DMABytes(p.Addr, n) // NIC writes the packet into the cache (DCA)
	fd.ring.Consume(ctx)    // core reads the RX descriptor
	if fd.sincePoll == 0 {
		// First packet of an RX burst pays the poll; the rest of the
		// batch rides on it.
		ctx.Compute(rxPollCompute, rxPollInstrs)
	}
	fd.sincePoll++
	if fd.sincePoll == fd.batch {
		fd.sincePoll = 0
	}
	ctx.Compute(rxCompute, rxInstrs)
	return p
}

// EndBatch closes the current RX burst, so the next Pull pays a fresh
// poll, and releases the feed's slots taken since the last EndBatch with
// one cursor store. The runtime's workers call it after every batch.
//
//dataplane:hotpath
func (fd *FromDevice) EndBatch() {
	fd.sincePoll = 0
	if fd.feed != nil {
		fd.feed.Release()
	}
}

// Recycle implements click.Recycler, returning the buffer to the pool.
//
//dataplane:hotpath
func (fd *FromDevice) Recycle(ctx *click.Ctx, p *click.Packet) {
	fd.pool.Put(ctx, p.PoolIndex)
}

// Pool exposes the buffer pool for tests and diagnostics.
func (fd *FromDevice) Pool() *nic.BufferPool { return fd.pool }

// ToDevice models one NIC transmit queue: it posts a TX descriptor and
// consumes the packet.
type ToDevice struct {
	ring *nic.Ring
}

// NewToDevice builds the sink with a 256-descriptor TX ring.
func NewToDevice(env *click.Env) *ToDevice {
	return &ToDevice{ring: nic.NewRing(env.Arena, 256)}
}

// Process implements click.Element.
func (td *ToDevice) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	old := ctx.SetFunc(fnToDevice)
	defer ctx.SetFunc(old)
	td.ring.Produce(ctx)
	ctx.Compute(txCompute, txInstrs)
	return click.Consume
}

// CheckIPHeader validates the IPv4 header exactly as Click's element of
// the same name: version, header length, total length, checksum. Invalid
// packets are dropped.
type CheckIPHeader struct{}

// Process implements click.Element.
func (c *CheckIPHeader) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	old := ctx.SetFunc(fnCheckIP)
	defer ctx.SetFunc(old)
	ctx.LoadBytes(p.Addr, netpkt.IPv4HeaderLen)
	ctx.Compute(checkIPCompute, checkIPInstrs)
	if _, err := netpkt.ParseIPv4(p.Data); err != nil {
		return click.Drop
	}
	return click.Continue
}

// DecIPTTL decrements the TTL and incrementally updates the header
// checksum (RFC 1624), dropping expired packets, as in the paper's "full
// IP forwarding" path.
type DecIPTTL struct{}

// Process implements click.Element.
func (d *DecIPTTL) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	old := ctx.SetFunc(fnDecTTL)
	defer ctx.SetFunc(old)
	ctx.Load(p.Addr)
	ctx.Store(p.Addr)
	ctx.Compute(decTTLCompute, decTTLInstrs)
	if err := netpkt.DecTTL(p.Data); err != nil {
		return click.Drop
	}
	return click.Continue
}

// Counter counts packets and bytes through a bookkeeping line, like
// Click's Counter element.
type Counter struct {
	addr    hw.Addr
	Packets uint64
	Bytes   uint64
}

// NewCounter allocates the counter's bookkeeping line from env's arena.
func NewCounter(env *click.Env) *Counter {
	return &Counter{addr: env.Arena.Alloc(hw.LineSize, hw.LineSize)}
}

// Process implements click.Element.
func (c *Counter) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	ctx.Load(c.addr)
	ctx.Store(c.addr)
	ctx.Compute(4, 4)
	c.Packets++
	c.Bytes += uint64(len(p.Data))
	return click.Continue
}

// Discard drops every packet, like Click's element of the same name.
type Discard struct{}

// Process implements click.Element.
func (d *Discard) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	return click.Drop
}

// Control is the paper's "control element" (Section 4, containing hidden
// aggressiveness): a configurable number of simple CPU operations at the
// head of a flow that slows it down, throttling the rate at which the
// flow performs memory accesses. The zero Control adds no delay; the
// monitoring loop in package core adjusts it at run time.
type Control struct {
	delay uint32
}

// Process implements click.Element.
func (c *Control) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	if d := c.delay; d > 0 {
		old := ctx.SetFunc(fnControl)
		ctx.Compute(d, d) // simple ALU ops: one instruction per cycle
		ctx.SetFunc(old)
	}
	return click.Continue
}

// Delay returns the current delay in cycles per packet.
func (c *Control) Delay() uint32 { return c.delay }

// SetDelay updates the delay in cycles per packet.
func (c *Control) SetDelay(cycles uint32) { c.delay = cycles }

// fromDeviceArgs is what FromDevice(...) decodes into: the source's
// configuration plus the keys that become one (the signature set
// SIG_COUNT/SIG_SEED derive).
type fromDeviceArgs struct {
	FromDeviceConfig
	sigCount, shiftAfter int
	sigSeed              uint64
}

// bare registers a class that takes no arguments.
func bare(class string, build func(env *click.Env) interface{}) {
	click.Register(class, nil, nil, func(env *click.Env, _ struct{}) (interface{}, error) { return build(env), nil })
}

func init() {
	click.Register("FromDevice", []click.Key[fromDeviceArgs]{
		click.Int("SIZE", fmt.Sprintf("[0,0]|[%d,65535]", trafficgen.MinPacketSize), func(a *fromDeviceArgs) *int { return &a.Traffic.Size }),
		click.Uint("SEED", "", func(a *fromDeviceArgs) *uint64 { return &a.Traffic.Seed }),
		click.Int("FLOWS", "[0,)", func(a *fromDeviceArgs) *int { return &a.Traffic.Flows }),
		click.Int("BUFFERS", "[0,1048576]", func(a *fromDeviceArgs) *int { return &a.Buffers }),
		click.Float("SIG_HIT", "[0,1]", func(a *fromDeviceArgs) *float64 { return &a.Traffic.SigHit }),
		click.Float("SIG_SHIFT", "[0,1]", func(a *fromDeviceArgs) *float64 { return &a.Traffic.SigHitShift }),
		click.Int("SIG_COUNT", "[1,)", func(a *fromDeviceArgs) *int { return &a.sigCount }),
		click.Uint("SIG_SEED", "", func(a *fromDeviceArgs) *uint64 { return &a.sigSeed }),
		click.Int("SIG_SHIFT_AFTER", "[0,)", func(a *fromDeviceArgs) *int { return &a.shiftAfter }),
		click.Float("LOW_ENTROPY", "[0,1]", func(a *fromDeviceArgs) *float64 { return &a.Traffic.LowEntropy }),
		click.Int("LOW_ENTROPY_BITS", "[0,8]", func(a *fromDeviceArgs) *int { return &a.Traffic.LowEntropyBits }),
	}, func(env *click.Env) fromDeviceArgs {
		return fromDeviceArgs{sigCount: 16, sigSeed: env.Seed}
	}, func(env *click.Env, a fromDeviceArgs) (interface{}, error) {
		// DPI payload shaping: the generator derives the same signature
		// set as a seed-configured SignatureClassifier, so SIG_HIT is the
		// scenario's exact match rate.
		if a.Traffic.SigHit > 0 || a.Traffic.SigHitShift > 0 {
			a.Traffic.Signatures = dpi.Signatures(a.sigSeed, a.sigCount)
			a.Traffic.SigShiftAfter = int64(a.shiftAfter)
		}
		return NewFromDevice(env, a.FromDeviceConfig)
	})
	bare("ToDevice", func(env *click.Env) interface{} { return NewToDevice(env) })
	bare("CheckIPHeader", func(*click.Env) interface{} { return &CheckIPHeader{} })
	bare("DecIPTTL", func(*click.Env) interface{} { return &DecIPTTL{} })
	bare("Counter", func(env *click.Env) interface{} { return NewCounter(env) })
	bare("Discard", func(*click.Env) interface{} { return &Discard{} })
	bare("Control", func(*click.Env) interface{} { return &Control{} })
}
