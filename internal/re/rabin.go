// Package re implements protocol-independent redundancy elimination
// (Spring & Wetherall, SIGCOMM 2000), the paper's RE workload: a rolling
// Rabin fingerprint over each packet's payload selects representative
// content fingerprints; a fingerprint table maps them to recently seen
// content in a packet store; matched regions are replaced by (offset,
// length) tokens that the far end expands from its own store.
//
// RE is the paper's representative memory-intensive workload that does
// NOT benefit from caching: the fingerprint table and packet store are
// tens of megabytes accessed at random, so almost every access misses the
// L3 — which is what makes RE the most aggressive co-runner (Figure 2).
package re

// Rabin fingerprinting over GF(2): the fingerprint of a byte string is
// its residue modulo an irreducible polynomial, computed incrementally
// with byte-at-a-time tables, plus a second table to "pop" the byte
// leaving a fixed-size sliding window.

// DefaultPoly is a degree-63 irreducible polynomial over GF(2), the one
// LBFS popularised for content fingerprinting.
const DefaultPoly = 0xbfe6b8a5bf378d83

// DefaultWindow is the sliding-window width in bytes over which
// fingerprints are computed.
const DefaultWindow = 64

// Rabin computes rolling fingerprints with a fixed window.
type Rabin struct {
	poly   uint64
	k      int    // degree of poly
	mask   uint64 // (1<<k)-1: valid fingerprint bits
	window int
	shiftT [256]uint64 // shiftT[b] = (b·x^k) mod poly
	popT   [256]uint64 // popT[b]  = (b·x^(8·(window-1))) mod poly
}

// NewRabin builds a fingerprinter for the given polynomial (degree 9..63,
// top bit being the degree) and window width in bytes.
func NewRabin(poly uint64, window int) *Rabin {
	k := deg(poly)
	if k < 9 || k > 63 {
		panic("re: polynomial degree must be in [9,63]")
	}
	if window < 2 {
		panic("re: window must be at least 2 bytes")
	}
	r := &Rabin{poly: poly, k: k, mask: 1<<uint(k) - 1, window: window}

	// xpow[i] = x^(k+i) mod poly, for i = 0..7.
	var xpow [8]uint64
	v := uint64(1) // x^0
	for i := 0; i < k; i++ {
		v = r.mulx(v)
	}
	for i := 0; i < 8; i++ {
		xpow[i] = v
		v = r.mulx(v)
	}
	for b := 0; b < 256; b++ {
		var t uint64
		for i := 0; i < 8; i++ {
			if b&(1<<uint(i)) != 0 {
				t ^= xpow[i]
			}
		}
		r.shiftT[b] = t
	}
	// popT via the definition: fingerprint of byte b followed by
	// window-1 zero bytes.
	for b := 0; b < 256; b++ {
		fp := r.appendByte(0, byte(b))
		for i := 0; i < window-1; i++ {
			fp = r.appendByte(fp, 0)
		}
		r.popT[b] = fp
	}
	return r
}

// deg returns the degree of polynomial p (-1 for 0).
func deg(p uint64) int {
	d := -1
	for i := 0; i < 64; i++ {
		if p&(1<<uint(i)) != 0 {
			d = i
		}
	}
	return d
}

// mulx multiplies a residue (degree < k) by x, reducing mod poly.
func (r *Rabin) mulx(v uint64) uint64 {
	v <<= 1
	if v&(1<<uint(r.k)) != 0 {
		v ^= r.poly
	}
	return v & r.mask
}

// appendByte extends fp with one byte: fp' = (fp·x^8 + b) mod poly.
// fp·x^8 = top·x^k + rest where top is fp's high byte; the precomputed
// table reduces the top term.
func (r *Rabin) appendByte(fp uint64, b byte) uint64 {
	top := byte(fp >> uint(r.k-8))
	return ((fp<<8)&r.mask | uint64(b)) ^ r.shiftT[top]
}

// Window returns the window width in bytes.
func (r *Rabin) Window() int { return r.window }

// Slide extends fp, the fingerprint of the window ending at data[i-1]
// (zero at i = 0), by data[i], popping the byte that leaves once the
// window is full: from i = Window()-1 on, the result is the fingerprint of
// the full window ending at data[i]. The caller drives the loop over i; it
// is the real rolling-hash arithmetic over the real bytes.
func (r *Rabin) Slide(fp uint64, data []byte, i int) uint64 {
	if i >= r.window {
		fp ^= r.popT[data[i-r.window]]
	}
	return r.appendByte(fp, data[i])
}

// FingerprintAt computes the fingerprint of the window ending at position
// pos from scratch, for verification in tests.
func (r *Rabin) FingerprintAt(data []byte, pos int) uint64 {
	var fp uint64
	for i := pos - r.window + 1; i <= pos; i++ {
		fp = r.appendByte(fp, data[i])
	}
	return fp
}
