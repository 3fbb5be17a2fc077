package aes

import (
	"bytes"
	"encoding/hex"
	"testing"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/netpkt"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// FIPS-197 Appendix C.1 known-answer test.
func TestFIPS197Vector(t *testing.T) {
	key := unhex(t, "000102030405060708090a0b0c0d0e0f")
	pt := unhex(t, "00112233445566778899aabbccddeeff")
	want := unhex(t, "69c4e0d86a7b0430d8cdb78070b4c55a")
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16) // CTR XORs E(IV) into zeros: one block encryption of pt
	c.CTR([16]byte(pt), got)
	if !bytes.Equal(got, want) {
		t.Fatalf("E(pt) = %x, want %x", got, want)
	}
}

// FIPS-197 Appendix B known-answer test.
func TestFIPS197AppendixB(t *testing.T) {
	key := unhex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	pt := unhex(t, "3243f6a8885a308d313198a2e0370734")
	want := unhex(t, "3925841d02dc09fbdc118597196a0b32")
	c, _ := NewCipher(key)
	got := make([]byte, 16) // CTR XORs E(IV) into zeros: one block encryption of pt
	c.CTR([16]byte(pt), got)
	if !bytes.Equal(got, want) {
		t.Fatalf("E(pt) = %x, want %x", got, want)
	}
}

func TestBadKeyLength(t *testing.T) {
	if _, err := NewCipher(make([]byte, 15)); err == nil {
		t.Fatal("15-byte key must be rejected")
	}
	if _, err := NewCipher(make([]byte, 32)); err == nil {
		t.Fatal("32-byte key must be rejected (AES-128 only)")
	}
}

// NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, all four blocks.
func TestCTRKnownVector(t *testing.T) {
	key := unhex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	var iv [16]byte
	copy(iv[:], unhex(t, "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"))
	buf := unhex(t, "6bc1bee22e409f96e93d7e117393172a"+"ae2d8a571e03ac9c9eb76fac45af8e51"+
		"30c81c46a35ce411e5fbc1191a0a52ef"+"f69f2445df4f9b17ad2b417be66c3710")
	want := unhex(t, "874d6191b620e3261bef6864990db6ce"+"9806f66b7970fdff8617187bb9fffdff"+
		"5ae4df3edbd5d35e5b4f09020db03eab"+"1e031dda2fbe03d1792170a0f3009cee")
	c, _ := NewCipher(key)
	c.CTR(iv, buf)
	if !bytes.Equal(buf, want) {
		t.Fatalf("CTR = %x, want %x", buf, want)
	}
}

func TestCTRIsInvolution(t *testing.T) {
	key := unhex(t, "000102030405060708090a0b0c0d0e0f")
	c, _ := NewCipher(key)
	msg := []byte("counter mode handles arbitrary-length payloads without padding")
	orig := append([]byte(nil), msg...)
	var iv [16]byte
	iv[15] = 1
	c.CTR(iv, msg)
	if bytes.Equal(msg, orig) {
		t.Fatal("CTR did not change the payload")
	}
	c.CTR(iv, msg)
	if !bytes.Equal(msg, orig) {
		t.Fatal("CTR twice with the same IV must restore the payload")
	}
}

func TestCTRCounterOverflow(t *testing.T) {
	key := unhex(t, "000102030405060708090a0b0c0d0e0f")
	c, _ := NewCipher(key)
	var iv [16]byte
	for i := range iv {
		iv[i] = 0xff // counter wraps immediately
	}
	buf := make([]byte, 48)
	c.CTR(iv, buf) // must not panic, and blocks must differ
	if bytes.Equal(buf[0:16], buf[16:32]) {
		t.Fatal("keystream repeated across counter wrap")
	}
}

func TestVPNElementEncryptsPayload(t *testing.T) {
	v, err := NewVPN(unhex(t, "000102030405060708090a0b0c0d0e0f"), mem.NewArena(0), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Each packet's ciphertext is stored to the next buffer of the output
	// ring, one store per line of the packet, never back into the packet;
	// the two-buffer ring wraps on the third packet.
	for i, buf := range []int{0, 1, 0} {
		b := make([]byte, 256)
		netpkt.WriteIPv4(b, netpkt.IPv4Header{TotalLen: 256, TTL: 64, Proto: netpkt.ProtoUDP, Src: 1, Dst: 2})
		orig := append([]byte(nil), b...)
		p := &click.Packet{Data: b, Addr: 0x10000}
		var ctx click.Ctx
		if verdict := v.Process(&ctx, p); verdict != click.Continue {
			t.Fatalf("packet %d: verdict = %v", i, verdict)
		}
		if bytes.Equal(b[20:], orig[20:]) {
			t.Fatalf("packet %d: payload unchanged", i)
		}
		if !bytes.Equal(b[:20], orig[:20]) {
			t.Fatalf("packet %d: header must not be encrypted", i)
		}

		var computes, loads int
		var stores []hw.Addr
		for _, op := range ctx.Ops {
			switch op.Kind {
			case hw.OpCompute:
				computes++
			case hw.OpLoad:
				loads++
			case hw.OpStore:
				stores = append(stores, op.Addr)
			}
		}
		// The 236-byte payload spans 4-5 lines; the packet spans 4.
		if loads < 4 || computes == 0 {
			t.Fatalf("packet %d: trace has %d loads / %d computes", i, loads, computes)
		}
		out := v.out.Addr(buf)
		if len(stores) != 256/hw.LineSize {
			t.Fatalf("packet %d: %d stores, want one per line of the packet (%d)", i, len(stores), 256/hw.LineSize)
		}
		for j, a := range stores {
			if want := out + hw.Addr(j*hw.LineSize); a != want {
				t.Fatalf("packet %d: store %d at %#x, want %#x in output buffer %d", i, j, a, want, buf)
			}
		}
	}
}

// TestVPNElementProcessAllocatesNothing gates the one host-side per-packet
// path this package owns: the cipher works in its own two blocks, so a
// packet costs no heap object however long its payload.
func TestVPNElementProcessAllocatesNothing(t *testing.T) {
	v, err := NewVPN(unhex(t, "000102030405060708090a0b0c0d0e0f"), mem.NewArena(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 768)
	netpkt.WriteIPv4(b, netpkt.IPv4Header{TotalLen: 768, TTL: 64, Proto: netpkt.ProtoUDP, Src: 1, Dst: 2})
	p := &click.Packet{Data: b, Addr: 0x10000}
	ctx := click.Ctx{Ops: make([]hw.Op, 0, 64)}
	if n := testing.AllocsPerRun(100, func() {
		ctx.Ops = ctx.Ops[:0]
		v.Process(&ctx, p)
	}); n != 0 {
		t.Fatalf("VPNElement.Process allocates %v objects per packet, want 0", n)
	}
}

func TestVPNElementDistinctIVs(t *testing.T) {
	v, _ := NewVPN(unhex(t, "000102030405060708090a0b0c0d0e0f"), mem.NewArena(0), 0)
	var ctx click.Ctx
	mk := func() []byte {
		b := make([]byte, 64)
		netpkt.WriteIPv4(b, netpkt.IPv4Header{TotalLen: 64, TTL: 64, Proto: netpkt.ProtoUDP, Src: 1, Dst: 2})
		return b
	}
	b1, b2 := mk(), mk()
	v.Process(&ctx, &click.Packet{Data: b1, Addr: 0x1000})
	v.Process(&ctx, &click.Packet{Data: b2, Addr: 0x2000})
	if bytes.Equal(b1[20:], b2[20:]) {
		t.Fatal("identical plaintexts encrypted identically: IV reuse")
	}
}
