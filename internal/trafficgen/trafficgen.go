// Package trafficgen produces deterministic packet streams for the
// experiment workloads: exactly the paper's crafted traffic, which
// maximises each application's sensitivity to contention — random
// destination addresses for IP lookup, random 5-tuples (or a fixed flow
// set, recomputed per packet, never stored) for NetFlow, non-matching
// packets for the firewall, unique content for redundancy elimination —
// from explicit seeds. The one shaping beyond it is the DPI chain's:
// signature hits and low-entropy payloads at stated rates.
package trafficgen

import (
	"encoding/binary"
	"fmt"

	"pktpredict/internal/netpkt"
	"pktpredict/internal/rng"
)

// Generator writes successive packets into caller-provided buffers.
type Generator interface {
	// Next writes the next packet into b and returns its length.
	// b must be at least MinPacketSize bytes; packets never exceed
	// the generator's configured size.
	Next(b []byte) int
}

// MinPacketSize is the smallest generated packet: an IPv4 header plus
// ports plus a minimal payload, 64 bytes as on the wire.
const MinPacketSize = 64

// Spec configures a generator.
type Spec struct {
	// Seed drives all randomness; equal specs yield identical streams.
	Seed uint64
	// Size is the total packet length in bytes (default MinPacketSize).
	Size int
	// Flows, when positive, draws each packet's 5-tuple from a fixed set
	// of that many flows, not a fresh random tuple per packet: Flows
	// 100000 fills the paper's NetFlow table. The set is never stored; a
	// flow's tuple is recomputed from its index by a jump (rng.At).
	Flows int

	// Signatures enables DPI payload shaping: with probability SigHit a
	// packet's payload embeds one of these byte patterns at a random
	// offset. Patterns are random byte strings (see dpi.Signatures), so
	// a payload that was not injected does not contain one by accident
	// — the hit rate is controlled exactly.
	Signatures [][]byte
	// SigHit is the probability a payload embeds a signature.
	SigHit float64
	// SigHitShift, when SigShiftAfter > 0, replaces SigHit after that
	// many packets — the DPI analogue of the hidden aggressor's
	// trigger, for exercising profile-drift detection: traffic whose
	// signature-hit rate shifts mid-run invalidates the detector
	// chain's offline profile.
	SigHitShift   float64
	SigShiftAfter int64
	// LowEntropy is the probability a payload is drawn from a small
	// alphabet of 2^LowEntropyBits byte values instead of uniformly
	// random bytes, giving a controllable bimodal entropy distribution
	// for the entropy-gate detector (0 bits = a single repeated value).
	LowEntropy     float64
	LowEntropyBits int
}

func (s Spec) withDefaults() Spec {
	if s.Size == 0 {
		s.Size = MinPacketSize
	}
	return s
}

// Validate reports configuration errors.
func (s Spec) Validate() error {
	s = s.withDefaults()
	if s.Size < MinPacketSize {
		return fmt.Errorf("trafficgen: size %d below minimum %d", s.Size, MinPacketSize)
	}
	if s.SigHit < 0 || s.SigHit > 1 {
		return fmt.Errorf("trafficgen: SigHit %v outside [0,1]", s.SigHit)
	}
	if s.SigHitShift < 0 || s.SigHitShift > 1 {
		return fmt.Errorf("trafficgen: SigHitShift %v outside [0,1]", s.SigHitShift)
	}
	if (s.SigHit > 0 || s.SigHitShift > 0) && len(s.Signatures) == 0 {
		return fmt.Errorf("trafficgen: SigHit requires Signatures")
	}
	for i, sig := range s.Signatures {
		if len(sig) == 0 {
			return fmt.Errorf("trafficgen: signature %d is empty", i)
		}
		if len(sig) > s.Size-netpkt.IPv4HeaderLen-8 {
			return fmt.Errorf("trafficgen: signature %d (%d bytes) does not fit a %d-byte packet's payload",
				i, len(sig), s.Size)
		}
	}
	if s.LowEntropy < 0 || s.LowEntropy > 1 {
		return fmt.Errorf("trafficgen: LowEntropy %v outside [0,1]", s.LowEntropy)
	}
	if s.LowEntropyBits < 0 || s.LowEntropyBits > 8 {
		return fmt.Errorf("trafficgen: LowEntropyBits %d outside [0,8]", s.LowEntropyBits)
	}
	return nil
}

type gen struct {
	spec Spec
	r    *rng.RNG
	id   uint16
	pkts int64
}

// New builds a generator from spec. It panics on invalid specs: generator
// configuration is experiment setup, where failing fast is the right
// behaviour.
func New(spec Spec) Generator {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &gen{spec: spec, r: rng.New(spec.Seed)}
}

// flow returns flow i of the fixed set: the i-th tuple of the stream
// seeded Seed ^ 0xf10e5, recomputed by a jump past randomTuple's five
// draws a tuple instead of stored.
func (g *gen) flow(i int) netpkt.FiveTuple {
	r := rng.At(g.spec.Seed^0xf10e5, 5*uint64(i))
	return randomTuple(&r)
}

func randomTuple(r *rng.RNG) netpkt.FiveTuple {
	proto := uint8(netpkt.ProtoUDP)
	if r.Uint64()&1 == 0 {
		proto = netpkt.ProtoTCP
	}
	return netpkt.FiveTuple{
		Src:     r.Uint32(),
		Dst:     r.Uint32(),
		SrcPort: uint16(r.Uint32()),
		DstPort: uint16(r.Uint32()),
		Proto:   proto,
	}
}

// sigHit returns the live signature-hit probability: SigHit until
// SigShiftAfter packets, SigHitShift afterwards.
func (g *gen) sigHit() float64 {
	if g.spec.SigShiftAfter > 0 && g.pkts > g.spec.SigShiftAfter {
		return g.spec.SigHitShift
	}
	return g.spec.SigHit
}

// Next implements Generator.
func (g *gen) Next(b []byte) int {
	size := g.spec.Size
	if len(b) < size {
		panic(fmt.Sprintf("trafficgen: buffer %d too small for %d-byte packet", len(b), size))
	}
	var t netpkt.FiveTuple
	if g.spec.Flows > 0 {
		t = g.flow(g.r.Intn(g.spec.Flows))
	} else {
		t = randomTuple(g.r)
	}
	g.id++
	netpkt.WriteIPv4(b, netpkt.IPv4Header{
		TotalLen: uint16(size),
		ID:       g.id,
		TTL:      64,
		Proto:    t.Proto,
		Src:      t.Src,
		Dst:      t.Dst,
	})
	binary.BigEndian.PutUint16(b[netpkt.IPv4HeaderLen:], t.SrcPort)
	binary.BigEndian.PutUint16(b[netpkt.IPv4HeaderLen+2:], t.DstPort)
	binary.BigEndian.PutUint32(b[netpkt.IPv4HeaderLen+4:], 0)

	payload := b[netpkt.IPv4HeaderLen+8 : size]
	g.r.Fill(payload)
	g.pkts++
	if g.spec.LowEntropy > 0 && g.r.Float64() < g.spec.LowEntropy {
		// Collapse the payload onto a 2^LowEntropyBits-value alphabet:
		// masking uniform bytes keeps the draw uniform over the smaller
		// alphabet, so the payload's Shannon entropy is LowEntropyBits
		// bits per byte.
		mask := byte(1<<g.spec.LowEntropyBits - 1)
		for i := range payload {
			payload[i] &= mask
		}
	}
	if hit := g.sigHit(); hit > 0 && g.r.Float64() < hit {
		sig := g.spec.Signatures[g.r.Intn(len(g.spec.Signatures))]
		if len(sig) <= len(payload) {
			off := g.r.Intn(len(payload) - len(sig) + 1)
			copy(payload[off:], sig)
		}
	}
	return size
}
