package re

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/rng"
)

// --- Rabin fingerprinting ---

// roll drives Slide over data, calling fn with the position of each full
// window's last byte and its fingerprint.
func roll(r *Rabin, data []byte, fn func(pos int, fp uint64)) {
	var fp uint64
	for i := range data {
		if fp = r.Slide(fp, data, i); i >= r.Window()-1 {
			fn(i, fp)
		}
	}
}

func TestRabinRollingMatchesScratch(t *testing.T) {
	r := NewRabin(DefaultPoly, 16)
	data := make([]byte, 300)
	rng.New(1).Fill(data)
	roll(r, data, func(pos int, fp uint64) {
		if want := r.FingerprintAt(data, pos); fp != want {
			t.Fatalf("pos %d: rolled %#x, scratch %#x", pos, fp, want)
		}
	})
}

func TestRabinContentDefined(t *testing.T) {
	// The fingerprint at a position depends only on the window's bytes,
	// not on anything before it — the property content-defined matching
	// relies on.
	r := NewRabin(DefaultPoly, 16)
	a := make([]byte, 200)
	b := make([]byte, 200)
	rng.New(2).Fill(a)
	rng.New(3).Fill(b)
	copy(b[100:140], a[100:140]) // shared content

	fpA := map[int]uint64{}
	roll(r, a, func(pos int, fp uint64) { fpA[pos] = fp })
	fpB := map[int]uint64{}
	roll(r, b, func(pos int, fp uint64) { fpB[pos] = fp })

	// Positions whose full window lies inside the shared region must
	// have identical fingerprints.
	for pos := 115; pos <= 139; pos++ {
		if fpA[pos] != fpB[pos] {
			t.Fatalf("pos %d: %#x vs %#x despite identical windows", pos, fpA[pos], fpB[pos])
		}
	}
}

func TestRabinShortInput(t *testing.T) {
	r := NewRabin(DefaultPoly, 64)
	called := false
	roll(r, make([]byte, 63), func(int, uint64) { called = true })
	if called {
		t.Fatal("a roll over input shorter than the window must not fire")
	}
}

func TestRabinDistinguishesContent(t *testing.T) {
	r := NewRabin(DefaultPoly, 16)
	a := []byte("aaaaaaaaaaaaaaaa")
	b := []byte("aaaaaaaaaaaaaaab")
	if r.FingerprintAt(a, 15) == r.FingerprintAt(b, 15) {
		t.Fatal("one-byte difference produced equal fingerprints")
	}
}

func TestRabinValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewRabin(0xff, 16) },       // degree 7 too small
		func() { NewRabin(DefaultPoly, 1) }, // window too small
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: rolled fingerprints equal from-scratch fingerprints for
// arbitrary data and window sizes.
func TestRabinRollQuick(t *testing.T) {
	f := func(seed uint64, wsel uint8) bool {
		w := 4 + int(wsel%60)
		r := NewRabin(DefaultPoly, w)
		data := make([]byte, w+100)
		rng.New(seed).Fill(data)
		ok := true
		roll(r, data, func(pos int, fp uint64) {
			if fp != r.FingerprintAt(data, pos) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- packet store ---

func TestPacketStoreAppendRead(t *testing.T) {
	ps := NewPacketStore(mem.NewArena(0), 4096)
	var ctx click.Ctx
	data := []byte("some packet content for the store")
	off := ps.Append(&ctx, data)
	if !ps.Valid(off, len(data)) {
		t.Fatal("fresh content must be valid")
	}
	out := make([]byte, len(data))
	ps.ReadAt(&ctx, off, out)
	if !bytes.Equal(out, data) {
		t.Fatalf("ReadAt = %q, want %q", out, data)
	}
}

func TestPacketStoreWrapInvalidatesOld(t *testing.T) {
	ps := NewPacketStore(mem.NewArena(0), 1024)
	var ctx click.Ctx
	first := ps.Append(&ctx, make([]byte, 512))
	if !ps.Valid(first, 512) {
		t.Fatal("first append should be valid")
	}
	ps.Append(&ctx, make([]byte, 1024)) // overwrites everything
	if ps.Valid(first, 512) {
		t.Fatal("wrapped-over content must be invalid")
	}
}

func TestPacketStoreValidBounds(t *testing.T) {
	ps := NewPacketStore(mem.NewArena(0), 2048)
	if ps.Valid(0, 1) {
		t.Fatal("nothing written yet: offset 0 must be invalid")
	}
	var ctx click.Ctx
	off := ps.Append(&ctx, make([]byte, 100))
	if ps.Valid(off, 101) {
		t.Fatal("validity must respect length")
	}
}

// --- fingerprint table ---

func TestFPTableLookupInsert(t *testing.T) {
	tb := NewFPTable(mem.NewArena(0), 1024)
	var ctx click.Ctx
	if _, ok := tb.Lookup(&ctx, 0xdeadbeefcafe); ok {
		t.Fatal("empty table returned a hit")
	}
	tb.Insert(&ctx, 0xdeadbeefcafe, 42)
	loc, ok := tb.Lookup(&ctx, 0xdeadbeefcafe)
	if !ok || loc != 42 {
		t.Fatalf("Lookup = %d/%v, want 42/true", loc, ok)
	}
}

func TestFPTableNewestWins(t *testing.T) {
	tb := NewFPTable(mem.NewArena(0), 64)
	var ctx click.Ctx
	tb.Insert(&ctx, 0x1234567800000001, 1)
	tb.Insert(&ctx, 0x1234567800000001, 2)
	loc, ok := tb.Lookup(&ctx, 0x1234567800000001)
	if !ok || loc != 2 {
		t.Fatalf("Lookup = %d/%v, want 2 (newest)", loc, ok)
	}
}

func TestFPTableMissesOtherKeys(t *testing.T) {
	tb := NewFPTable(mem.NewArena(0), 64)
	var ctx click.Ctx
	tb.Insert(&ctx, 0xabc0000000000000, 9)
	if loc, ok := tb.Lookup(&ctx, 0xabc0000000000000); !ok || loc != 9 {
		t.Fatalf("Lookup of the inserted key = %d/%v, want 9/true", loc, ok)
	}
	if _, ok := tb.Lookup(&ctx, 0xdef0000000000000); ok {
		t.Fatal("Lookup of a key never inserted hit")
	}
}

// --- processor: end-to-end ---

// matchedLen is the bytes enc replaced by references: the lengths of its
// match segments.
func matchedLen(enc Encoded) (n int) {
	for _, s := range enc.Segments {
		if s.Match {
			n += s.Len
		}
	}
	return n
}

func newProc() *Processor {
	return NewProcessor(mem.NewArena(0), Config{
		StoreBytes:   1 << 20,
		TableEntries: 1 << 14,
		SampleBits:   3,
	})
}

func TestProcessorUniqueContentNoMatches(t *testing.T) {
	p := newProc()
	var ctx click.Ctx
	payload := make([]byte, 1000)
	sampled := 0
	for i := 0; i < 20; i++ {
		rng.New(uint64(i + 1)).Fill(payload)
		enc := p.Process(&ctx, payload, 0x100000)
		if matchedLen(enc) != 0 {
			t.Fatalf("packet %d: matched %d bytes of unique content", i, matchedLen(enc))
		}
		sampled += len(p.reps)
		ctx.Ops = ctx.Ops[:0]
	}
	if sampled == 0 {
		t.Fatal("no representative fingerprints sampled")
	}
}

func TestProcessorDetectsRepeatedPayload(t *testing.T) {
	p := newProc()
	var ctx click.Ctx
	payload := make([]byte, 1000)
	rng.New(7).Fill(payload)

	enc1 := p.Process(&ctx, payload, 0x100000)
	if matchedLen(enc1) != 0 {
		t.Fatal("first sighting must not match")
	}
	enc2 := p.Process(&ctx, payload, 0x100000)
	if matchedLen(enc2) < 900 {
		t.Fatalf("repeat matched only %d of 1000 bytes", matchedLen(enc2))
	}
	refs := 0
	for _, s := range enc2.Segments {
		if s.Match {
			refs++
		}
	}
	if saved := matchedLen(enc2) - 12*refs; saved < 800 { // a reference token is 12 bytes
		t.Fatalf("saved only %d bytes", saved)
	}
}

func TestProcessorEncodeDecodeRoundTrip(t *testing.T) {
	p := newProc()
	var ctx click.Ctx
	payload := make([]byte, 800)
	rng.New(11).Fill(payload)

	p.Process(&ctx, payload, 0x100000)
	// Second packet: half repeated content, half new.
	second := make([]byte, 800)
	copy(second[:400], payload[:400])
	rng.New(12).Fill(second[400:])

	enc := p.Process(&ctx, second, 0x100000)
	if matchedLen(enc) == 0 {
		t.Fatal("expected a partial match")
	}
	decoded, err := p.Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(decoded, second) {
		t.Fatal("decode does not reproduce the original payload")
	}
}

// Property: for any mix of repeated and fresh content, decoding the
// encoding always reproduces the payload exactly.
func TestProcessorRoundTripQuick(t *testing.T) {
	f := func(seed uint64) bool {
		p := newProc()
		var ctx click.Ctx
		r := rng.New(seed)
		prev := make([]byte, 600)
		r.Fill(prev)
		p.Process(&ctx, prev, 0x100000)
		for iter := 0; iter < 5; iter++ {
			ctx.Ops = ctx.Ops[:0]
			cur := make([]byte, 600)
			r.Fill(cur)
			// Splice in a run of earlier content at a random position.
			n := 64 + r.Intn(200)
			srcOff := r.Intn(len(prev) - n)
			dstOff := r.Intn(len(cur) - n)
			copy(cur[dstOff:dstOff+n], prev[srcOff:srcOff+n])
			enc := p.Process(&ctx, cur, 0x100000)
			dec, err := p.Decode(enc)
			if err != nil || !bytes.Equal(dec, cur) {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestProcessorEmitsHeavyTrace(t *testing.T) {
	p := newProc()
	var ctx click.Ctx
	payload := make([]byte, 1000)
	rng.New(20).Fill(payload)
	p.Process(&ctx, payload, 0x100000)

	var loads, stores int
	for _, op := range ctx.Ops {
		switch op.Kind {
		case hw.OpLoad:
			loads++
		case hw.OpStore:
			stores++
		}
	}
	// Payload reads + table lookups; store append + table inserts.
	if loads < 16 || stores < 16 {
		t.Fatalf("trace: %d loads / %d stores; RE must be memory-heavy", loads, stores)
	}
}

func TestElementAccumulatesSavings(t *testing.T) {
	el := &Element{Proc: newProc()}
	var ctx click.Ctx
	b := make([]byte, 1000)
	rng.New(30).Fill(b[20:])
	pkt := &click.Packet{Data: b, Addr: 0x200000}
	el.Process(&ctx, pkt)
	el.Process(&ctx, pkt) // identical packet: matches
	if !slices.ContainsFunc(el.Proc.segs, func(s Segment) bool { return s.Match }) {
		t.Fatal("repeated packet matched nothing")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.StoreBytes != 16<<20 || c.TableEntries != 2<<20 || c.SampleBits != 4 {
		t.Fatalf("defaults = %+v", c)
	}
}
