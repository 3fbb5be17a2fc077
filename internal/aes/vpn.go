package aes

import (
	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/netpkt"
)

// fnAES attributes encryption work in profiles.
var fnAES = hw.RegisterFunc("aes_encrypt")

// cyclesPerBlock approximates software AES-128 cost per 16-byte block on
// the modelled 2.8 GHz Westmere without AES-NI (~6.5 cycles/byte), the
// figure that makes the VPN workload CPU-bound as in the paper.
const cyclesPerBlock = 104

// instrsPerBlock approximates the retired instructions per block for the
// same software implementation.
const instrsPerBlock = 180

// VPNElement encrypts each packet's payload with AES-128 CTR, writing the
// ciphertext into a per-flow ring of output buffers — as an ESP
// encapsulation path does, which is what puts tunnel endpoints' output
// buffers into the cache working set.
type VPNElement struct {
	cipher *Cipher
	out    mem.Region // output-buffer ring
	outIdx int
	nextIV uint64
}

// defaultOutBuffers is the default output-ring depth: tunnel endpoints
// cycle ciphertext buffers over an area comparable to the packet-buffer
// pool, which is what keeps their stores streaming rather than
// cache-resident.
const defaultOutBuffers = 4096

const outBufferBytes = 2048 // one output buffer: the largest packet

// NewVPN builds the element with the given 16-byte key and allocates
// its output-buffer ring from arena: outBuffers buffers (0 = default) of
// outBufferBytes each.
func NewVPN(key []byte, arena *mem.Arena, outBuffers int) (*VPNElement, error) {
	c, err := NewCipher(key)
	if err != nil {
		return nil, err
	}
	if outBuffers <= 0 {
		outBuffers = defaultOutBuffers
	}
	return &VPNElement{cipher: c, out: mem.NewRegion(arena, outBuffers, outBufferBytes, true)}, nil
}

// Process implements click.Element.
func (v *VPNElement) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	old := ctx.SetFunc(fnAES)
	defer ctx.SetFunc(old)

	payload := p.Data[netpkt.IPv4HeaderLen:]
	if len(payload) == 0 {
		return click.Continue
	}
	var iv [16]byte
	v.nextIV++
	for i, s := 0, v.nextIV; i < 8; i++ {
		iv[i] = byte(s >> (8 * i))
	}
	v.cipher.CTR(iv, payload)

	// Trace: the payload is read line by line, each block costs cipher
	// compute, and the ciphertext is written to the output buffer. The
	// S-box and round keys are a few hundred bytes that remain
	// L1-resident.
	blocks := (len(payload) + BlockSize - 1) / BlockSize
	ctx.LoadBytes(p.Addr+netpkt.IPv4HeaderLen, len(payload))
	ctx.Compute(uint32(blocks*cyclesPerBlock), uint32(blocks*instrsPerBlock))
	ctx.StoreBytes(v.out.Addr(v.outIdx), len(p.Data))
	v.outIdx = (v.outIdx + 1) % v.out.Count
	return click.Continue
}

func init() {
	click.Register("AESEncrypt", []click.Key[int]{
		click.Int("OUTBUFS", "[0,)", func(n *int) *int { return n }),
	}, nil, func(env *click.Env, outBufs int) (interface{}, error) {
		key := make([]byte, KeySize)
		seed := env.Seed
		for i := range key {
			key[i] = byte(seed >> (8 * (uint(i) % 8)))
			if i == 7 {
				seed = seed*0x9e3779b97f4a7c15 + 1
			}
		}
		return NewVPN(key, env.Arena, outBufs)
	})
}
