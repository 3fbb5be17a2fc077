package elements

import (
	"encoding/binary"

	"pktpredict/internal/click"
	"pktpredict/internal/dpi"
	"pktpredict/internal/hw"
	"pktpredict/internal/netpkt"
)

// The IDS element family. The three detectors deliberately span the
// cost spectrum the ROADMAP calls out: SignatureClassifier is the cheap
// always-on fast path (a few cycles per payload byte, every packet),
// EntropyGate is the expensive slow path (hundreds of nanoseconds, only
// for signature matches), and BanTable is the second large mutable
// state table (an LRU verdict cache keyed by source address). Chained —
// match steers to entropy, high entropy steers to the ban table — they
// give one flow a per-packet cost distribution with a long tail, which
// is exactly the regime that stresses throughput prediction and
// per-element attribution.

var (
	fnSigScan = hw.RegisterFunc("signature_classifier")
	fnEntropy = hw.RegisterFunc("entropy_gate")
	fnBan     = hw.RegisterFunc("ban_table")
)

// payloadOffset is where generated payload bytes start: past the IPv4
// header, the ports, and the 4 zero bytes (see trafficgen).
const payloadOffset = netpkt.IPv4HeaderLen + 8

// Modelled costs. The scan charges per payload byte (one DFA transition
// plus an output check); every sigTableStride bytes it also touches one
// automaton row, modelling the walk's data-dependent row reuse without
// emitting an op per byte. The entropy estimate charges a base
// (histogram reset plus the per-symbol log2 pass) and a per-sample
// increment; at the default 512-sample window the total is ~2.7k cycles
// — just under a microsecond at the paper's clock, the deliberately
// expensive detector.
const (
	sigScanCyclesPerByte = 2
	sigScanInstrsPerByte = 3
	sigTableStride       = 16
	entropyBaseCompute   = 700
	entropyBaseInstrs    = 900
	entropySampleCycles  = 4
	entropySampleInstrs  = 5
)

// SignatureClassifier scans every payload byte through a compiled
// multi-pattern matcher and steers matches out port 1 (clean traffic
// exits port 0). The pattern set is derived from a seed shared with the
// traffic generator.
type SignatureClassifier struct {
	table *dpi.SigTable
}

// NewSignatureClassifier builds the classifier over a compiled table.
func NewSignatureClassifier(env *click.Env, patterns [][]byte) (*SignatureClassifier, error) {
	table, err := dpi.NewSigTable(env.Arena, patterns)
	if err != nil {
		return nil, err
	}
	return &SignatureClassifier{table: table}, nil
}

// NumOutputs implements click.Router: port 0 clean, port 1 match.
func (s *SignatureClassifier) NumOutputs() int { return 2 }

// Process implements click.Element: scan the payload, trace the scan.
func (s *SignatureClassifier) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	old := ctx.SetFunc(fnSigScan)
	defer ctx.SetFunc(old)
	if len(p.Data) <= payloadOffset {
		return click.Output(0)
	}
	payload := p.Data[payloadOffset:]
	ctx.LoadBytes(p.Addr+payloadOffset, len(payload))
	// The automaton rows the walk revisits, sampled one touch per
	// stride with the row picked by the payload byte steering it —
	// data-dependent like the real transition stream, without an op per
	// byte.
	for i := 0; i < len(payload); i += sigTableStride {
		ctx.Load(s.table.RowAddr(int(payload[i])))
	}
	ctx.Compute(uint32(len(payload)*sigScanCyclesPerByte), uint32(len(payload)*sigScanInstrsPerByte))
	if s.table.Match(payload) >= 0 {
		return click.Output(1)
	}
	return click.Output(0)
}

// EntropyGate estimates each payload's Shannon entropy over a sampled
// window and steers estimates at or above the threshold (in bits per
// byte) out port 1 — high-entropy payloads where a signature also hit
// are the encrypted/compressed-exfiltration suspects. Below-threshold
// traffic exits port 0.
type EntropyGate struct {
	est       dpi.Entropy
	threshold float64
	window    int
}

// NewEntropyGate builds the gate; window <= 0 uses dpi.EntropyWindow.
func NewEntropyGate(threshold float64, window int) *EntropyGate {
	if window <= 0 {
		window = dpi.EntropyWindow
	}
	return &EntropyGate{threshold: threshold, window: window}
}

// NumOutputs implements click.Router: port 0 pass, port 1 flagged.
func (e *EntropyGate) NumOutputs() int { return 2 }

// Process implements click.Element.
func (e *EntropyGate) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	old := ctx.SetFunc(fnEntropy)
	defer ctx.SetFunc(old)
	if len(p.Data) <= payloadOffset {
		return click.Output(0)
	}
	payload := p.Data[payloadOffset:]
	samples := dpi.SampleCount(len(payload), e.window)
	// The strided sample walk touches essentially every payload line
	// (stride < line size at any realistic window), then burns the
	// histogram + log pass.
	ctx.LoadBytes(p.Addr+payloadOffset, len(payload))
	ctx.Compute(uint32(entropyBaseCompute+samples*entropySampleCycles),
		uint32(entropyBaseInstrs+samples*entropySampleInstrs))
	if e.est.EstimateBits(payload, e.window) >= e.threshold {
		return click.Output(1)
	}
	return click.Output(0)
}

// BanTableElement wraps the dpi.BanTable LRU verdict table as a click
// Router: each packet's source address is checked and recorded; repeat
// offenders (already in the table) exit port 1 — typically into a
// Discard — and first sightings are inserted and exit port 0. Placed at
// the tail of the suspect path it drops sources that keep triggering
// the upstream detectors while letting first strikes through.
type BanTableElement struct {
	table *dpi.BanTable
}

// NewBanTableElement allocates the ban table from env's arena.
func NewBanTableElement(env *click.Env, entries int) (*BanTableElement, error) {
	table, err := dpi.NewBanTable(env.Arena, entries)
	if err != nil {
		return nil, err
	}
	return &BanTableElement{table: table}, nil
}

// NumOutputs implements click.Router: port 0 pass, port 1 banned.
func (b *BanTableElement) NumOutputs() int { return 2 }

// Process implements click.Element.
func (b *BanTableElement) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	old := ctx.SetFunc(fnBan)
	defer ctx.SetFunc(old)
	if len(p.Data) < netpkt.IPv4HeaderLen {
		return click.Drop
	}
	ctx.Load(p.Addr) // source address sits in the header's first line
	src := binary.BigEndian.Uint32(p.Data[12:16])
	if b.table.Check(ctx, src) {
		return click.Output(1)
	}
	return click.Output(0)
}

// sigArgs is what SignatureClassifier(...) decodes into.
type sigArgs struct {
	patterns int
	seed     uint64
}

func init() {
	click.Register("SignatureClassifier", []click.Key[sigArgs]{
		click.Int("PATTERNS", "[1,)", func(a *sigArgs) *int { return &a.patterns }),
		click.Uint("SIG_SEED", "", func(a *sigArgs) *uint64 { return &a.seed }),
	}, func(env *click.Env) sigArgs {
		return sigArgs{patterns: 16, seed: env.Seed}
	}, func(env *click.Env, a sigArgs) (interface{}, error) {
		return NewSignatureClassifier(env, dpi.Signatures(a.seed, a.patterns))
	})
	// EntropyGate's rows land in the fields of a scratch gate.
	click.Register("EntropyGate", []click.Key[EntropyGate]{
		click.Float("THRESHOLD", "[0,8]", func(g *EntropyGate) *float64 { return &g.threshold }),
		click.Int("WINDOW", "[0,)", func(g *EntropyGate) *int { return &g.window }),
	}, func(*click.Env) EntropyGate { return EntropyGate{threshold: 6.5} }, func(_ *click.Env, g EntropyGate) (interface{}, error) {
		return NewEntropyGate(g.threshold, g.window), nil
	})
	click.Register("BanTable", []click.Key[int]{
		click.Int("ENTRIES", "[1,)", func(n *int) *int { return n }),
	}, func(*click.Env) int { return 16384 }, func(env *click.Env, entries int) (interface{}, error) {
		return NewBanTableElement(env, entries)
	})
}
