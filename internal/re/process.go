package re

import (
	"fmt"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/netpkt"
)

// Config sizes one RE processor instance.
type Config struct {
	// StoreBytes is the packet-store capacity. The paper holds one
	// second of traffic (~100 MB at its rates); the default here is
	// 16 MiB, still greater than the whole L3, which preserves the
	// cache-behaviour regime while keeping multi-flow experiments within
	// host memory.
	StoreBytes int
	// TableEntries is the fingerprint-table slot count (paper: >4M;
	// default 2M).
	TableEntries int
	// SampleBits selects representative fingerprints: a window is
	// representative when the low SampleBits bits of its fingerprint are
	// zero, i.e. 1 in 2^SampleBits positions on average (default 4).
	SampleBits int
}

func (c Config) withDefaults() Config {
	if c.StoreBytes == 0 {
		c.StoreBytes = 16 << 20
	}
	if c.TableEntries == 0 {
		c.TableEntries = 2 << 20
	}
	if c.SampleBits == 0 {
		c.SampleBits = 4
	}
	return c
}

// Segment is one piece of an encoded payload: either a literal byte range
// or a reference to content in the packet store.
type Segment struct {
	// Literal bytes, when Match is false.
	Literal []byte
	// Store offset and length, when Match is true.
	Off   uint64
	Len   int
	Match bool
}

// Encoded is the result of processing one payload.
type Encoded struct {
	Segments []Segment // the Processor's scratch: valid until its next Process
	RawLen   int
}

// Processor is one flow's redundancy-elimination engine.
type Processor struct {
	rabin  *Rabin
	store  *PacketStore
	table  *FPTable
	sample uint64    // selection mask
	reps   []rep     // scratch kept between packets: steady state allocates nothing
	segs   []Segment // backing array of the last Encoded.Segments
}

// NewProcessor allocates the processor's store and table from arena.
func NewProcessor(arena *mem.Arena, cfg Config) *Processor {
	cfg = cfg.withDefaults()
	return &Processor{
		rabin:  NewRabin(DefaultPoly, DefaultWindow),
		store:  NewPacketStore(arena, cfg.StoreBytes),
		table:  NewFPTable(arena, cfg.TableEntries),
		sample: 1<<uint(cfg.SampleBits) - 1,
	}
}

// rep is one representative fingerprint of the payload being processed.
type rep struct {
	pos int // window start position in payload
	fp  uint64
}

// rollCyclesPerByte charges the rolling-hash arithmetic: two table
// lookups, two shifts and two XORs per byte.
const rollCyclesPerByte = 3

// Process runs redundancy elimination over payload (whose first byte has
// simulated address addr): it fingerprints the content, looks up
// representative fingerprints, verifies and extends matches against the
// packet store, appends the new content to the store, and returns the
// encoding. All table and store traffic is emitted into ctx.
//
//dataplane:hotpath
func (p *Processor) Process(ctx *click.Ctx, payload []byte, addr hw.Addr) Encoded {
	old := ctx.SetFunc(fnRE)
	defer ctx.SetFunc(old)

	enc := Encoded{Segments: p.segs[:0], RawLen: len(payload)}

	// Fingerprint the payload. The payload lines are (re)read and the
	// rolling hash is charged per byte.
	ctx.LoadBytes(addr, len(payload))
	ctx.Compute(uint32(len(payload)*rollCyclesPerByte), uint32(len(payload)*2))

	reps, w, fp := p.reps[:0], p.rabin.Window(), uint64(0)
	for i := range payload {
		if fp = p.rabin.Slide(fp, payload, i); i >= w-1 && fp&p.sample == 0 {
			reps = append(reps, rep{pos: i - w + 1, fp: fp})
		}
	}
	p.reps = reps

	// Match representative regions against the store, greedily and
	// left-to-right; matched regions are extended byte-wise in both
	// directions as in Spring & Wetherall.
	covered := 0 // payload prefix already emitted
	for _, rp := range reps {
		if rp.pos < covered {
			continue
		}
		loc, ok := p.table.Lookup(ctx, rp.fp)
		if !ok || !p.store.Valid(loc, w) {
			continue
		}
		// Verify the window byte-for-byte against the store.
		if !p.compare(ctx, payload, rp.pos, loc, w) {
			continue // fingerprint collision
		}
		// Extend the match forwards.
		length := w
		for rp.pos+length < len(payload) &&
			p.store.Valid(loc, length+1) &&
			p.store.byteAt(loc+uint64(length)) == payload[rp.pos+length] {
			length++
		}
		// Extend backwards, not crossing already-covered bytes.
		start, sloc := rp.pos, loc
		for start > covered && sloc > 0 &&
			p.store.Valid(sloc-1, 1) &&
			p.store.byteAt(sloc-1) == payload[start-1] {
			start--
			sloc--
			length++
		}
		if start > covered {
			enc.Segments = append(enc.Segments, Segment{Literal: payload[covered:start]})
		}
		enc.Segments = append(enc.Segments, Segment{Off: sloc, Len: length, Match: true})
		covered = start + length
	}
	if covered < len(payload) {
		enc.Segments = append(enc.Segments, Segment{Literal: payload[covered:]})
	}
	p.segs = enc.Segments

	// Append the raw payload to the store and index its representative
	// fingerprints at their new locations.
	base := p.store.Append(ctx, payload)
	for _, rp := range reps {
		p.table.Insert(ctx, rp.fp, base+uint64(rp.pos))
	}
	return enc
}

// compare verifies n payload bytes at pos against the store at loc,
// charging the store-line loads and comparison work.
//
//dataplane:stamped emits under the caller's Ctx bracket (called from Processor.Process)
func (p *Processor) compare(ctx *click.Ctx, payload []byte, pos int, loc uint64, n int) bool {
	for i := 0; i < n; i += hw.LineSize {
		ctx.Load(p.store.addrOf(loc + uint64(i)))
	}
	ctx.Compute(uint32(n/4), uint32(n/4))
	for i := 0; i < n; i++ {
		if p.store.byteAt(loc+uint64(i)) != payload[pos+i] {
			return false
		}
	}
	return true
}

// Decode reconstructs the original payload from an encoding using the
// store — what the device at the other end of the link does. It fails if
// referenced content has been overwritten.
func (p *Processor) Decode(enc Encoded) ([]byte, error) {
	out := make([]byte, 0, enc.RawLen)
	for _, s := range enc.Segments {
		if !s.Match {
			out = append(out, s.Literal...)
			continue
		}
		if !p.store.Valid(s.Off, s.Len) {
			return nil, fmt.Errorf("re: reference (%d,%d) no longer in store", s.Off, s.Len)
		}
		for i := 0; i < s.Len; i++ {
			out = append(out, p.store.byteAt(s.Off+uint64(i)))
		}
	}
	if len(out) != enc.RawLen {
		return nil, fmt.Errorf("re: decoded %d bytes, want %d", len(out), enc.RawLen)
	}
	return out, nil
}

// Element is the RedundancyElim click element.
type Element struct {
	Proc *Processor
}

// Process implements click.Element.
func (e *Element) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	if len(p.Data) <= netpkt.IPv4HeaderLen {
		return click.Continue
	}
	payload := p.Data[netpkt.IPv4HeaderLen:]
	e.Proc.Process(ctx, payload, p.Addr+netpkt.IPv4HeaderLen)
	return click.Continue
}

func init() {
	click.Register("RedundancyElim", []click.Key[Config]{
		click.Int("STORE", "[0,0]|[1024,)", func(c *Config) *int { return &c.StoreBytes }),
		click.Int("ENTRIES", "[0,)", func(c *Config) *int { return &c.TableEntries }),
		click.Int("SAMPLEBITS", "[0,63]", func(c *Config) *int { return &c.SampleBits }),
	}, nil, func(env *click.Env, cfg Config) (interface{}, error) {
		return &Element{Proc: NewProcessor(env.Arena, cfg)}, nil
	})
}
