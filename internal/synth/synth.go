// Package synth implements the paper's SYN workload: for each "packet" it
// performs a configurable number of simple CPU operations (counter
// increments) and reads a configurable number of random locations in a
// data structure the size of the L3 cache. Ramping the CPU-to-memory
// ratio sweeps the flow's cache references per second, which is how the
// profiling methodology (Section 4) measures a target application's
// drop-versus-competition curve. SYN_MAX — no computation, back-to-back
// accesses — is the most aggressive flow the platform can host.
package synth

import (
	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/rng"
)

// fnSyn attributes synthetic accesses in profiles.
var fnSyn = hw.RegisterFunc("syn_touch")

// Config parameterises a synthetic flow.
type Config struct {
	// Seed drives the access pattern.
	Seed uint64
	// RegionBytes is the touched data structure's size (default 12 MiB,
	// the paper's L3 size).
	RegionBytes int
	// AccessesPerPacket is the number of random reads per packet
	// (default 32).
	AccessesPerPacket int
	// ComputePerAccess is the number of counter-increment cycles between
	// consecutive reads; 0 is SYN_MAX behaviour.
	ComputePerAccess int
}

func (c Config) withDefaults() Config {
	if c.RegionBytes == 0 {
		c.RegionBytes = 12 << 20
	}
	if c.AccessesPerPacket == 0 {
		c.AccessesPerPacket = 32
	}
	return c
}

// Source is a standalone synthetic flow: it needs no NIC or Click
// scaffolding because the paper's SYN_MAX performs "no other processing
// but consecutive memory accesses at the highest possible rate".
// It implements hw.PacketSource.
type Source struct {
	cfg    Config
	region mem.Region
	r      *rng.RNG
	lines  int
}

// NewSource allocates the flow's region from arena.
func NewSource(arena *mem.Arena, cfg Config) *Source {
	cfg = cfg.withDefaults()
	region := mem.NewRegion(arena, cfg.RegionBytes/hw.LineSize, hw.LineSize, false)
	return &Source{
		cfg:    cfg,
		region: region,
		r:      rng.New(cfg.Seed),
		lines:  region.Count,
	}
}

// EmitPacket implements hw.PacketSource. The random reads form an
// independent address stream, which an out-of-order core overlaps —
// that memory-level parallelism is what lets the paper's SYN flows push
// competing references into the hundreds of millions per second.
//
//dataplane:stamped raw source ops carry Func only; synth.Element.Process re-stamps Elem in place
//dataplane:hotpath
func (s *Source) EmitPacket(buf []hw.Op) []hw.Op {
	for i := 0; i < s.cfg.AccessesPerPacket; i++ {
		if k := s.cfg.ComputePerAccess; k > 0 {
			buf = append(buf, hw.Op{Kind: hw.OpCompute, Cycles: uint32(k), Instrs: uint32(k), Func: fnSyn})
		}
		addr := s.region.Addr(s.r.Intn(s.lines))
		buf = append(buf, hw.Op{Kind: hw.OpLoadStream, Addr: addr, Func: fnSyn})
	}
	return buf
}

// Element is the synthetic load as a Click element, for flows that mix
// real packet processing with synthetic memory pressure — e.g. the
// "hidden aggressiveness" scenario of Section 4 where a flow behaves like
// a firewall until a trigger switches it to SYN_MAX behaviour.
type Element struct {
	src *Source
	// TriggerAfter activates the synthetic accesses only after this many
	// packets have been processed; 0 means always active.
	TriggerAfter uint64
	seen         uint64
}

// NewElement wraps cfg as a Click element allocating from arena.
func NewElement(arena *mem.Arena, cfg Config, triggerAfter uint64) *Element {
	return &Element{src: NewSource(arena, cfg), TriggerAfter: triggerAfter}
}

// Active reports whether the synthetic load has started firing.
func (e *Element) Active() bool { return e.seen > e.TriggerAfter }

// Process implements click.Element.
//
//dataplane:stamped re-stamps the source's raw ops with ctx.Elem() immediately after EmitPacket (the PR 7 fix)
func (e *Element) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	e.seen++
	if e.seen <= e.TriggerAfter {
		return click.Continue
	}
	old := ctx.SetFunc(fnSyn)
	start := len(ctx.Ops)
	ctx.Ops = e.src.EmitPacket(ctx.Ops)
	// Source.EmitPacket appends raw ops (it predates per-element
	// attribution); stamp them with this element's slot so the synthetic
	// load shows up under the element, not the flow's overhead cell.
	for i := start; i < len(ctx.Ops); i++ {
		ctx.Ops[i].Elem = ctx.Elem()
	}
	ctx.SetFunc(old)
	return click.Continue
}

func init() {
	click.Register("Syn", []click.Key[Config]{
		click.Int("REGION", "[0,0]|[64,)", func(c *Config) *int { return &c.RegionBytes }),
		click.Int("ACCESSES", "[0,)", func(c *Config) *int { return &c.AccessesPerPacket }),
		click.Uint("SEED", "", func(c *Config) *uint64 { return &c.Seed }),
	}, func(env *click.Env) Config {
		return Config{Seed: env.Seed}
	}, func(env *click.Env, c Config) (interface{}, error) {
		return NewElement(env.Arena, c, 0), nil
	})
}
