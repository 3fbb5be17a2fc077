// Package aes is the paper's VPN workload: AES-128 in counter mode over
// real payload bytes, making VPN the system's representative
// CPU-intensive packet processing. The block cipher is the standard
// library's crypto/aes; what the simulated core is charged (vpn.go:
// cycles per block plus the payload's loads and stores) is a constant of
// the modelled software implementation and never depended on the host's.
package aes

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"fmt"
)

// BlockSize is the AES block size in bytes.
const BlockSize = aes.BlockSize

// KeySize is the AES-128 key size in bytes.
const KeySize = 16

// Cipher is an expanded AES-128 key with the two blocks CTR works in, so
// that encrypting a payload allocates nothing (a block handed to the
// cipher.Block interface would escape). It is not safe for concurrent
// use; every VPN element owns one.
type Cipher struct {
	block              cipher.Block
	counter, keystream [BlockSize]byte
}

// NewCipher expands a 16-byte key.
func NewCipher(key []byte) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("aes: key length %d, want %d", len(key), KeySize)
	}
	block, _ := aes.NewCipher(key) // fails only on a key length it does not know
	return &Cipher{block: block}, nil
}

// CTR encrypts (or, identically, decrypts) buf in place using counter
// mode with the given 16-byte IV. CTR turns the block cipher into a
// stream cipher, so arbitrary payload lengths need no padding — the mode
// VPN tunnels typically use. (cipher.NewCTR allocates a stream per call.)
func (c *Cipher) CTR(iv [16]byte, buf []byte) {
	c.counter = iv
	for off := 0; off < len(buf); off += BlockSize {
		c.block.Encrypt(c.keystream[:], c.counter[:])
		subtle.XORBytes(buf[off:], buf[off:], c.keystream[:])
		// Increment the counter big-endian.
		for i := BlockSize - 1; i >= 0; i-- {
			c.counter[i]++
			if c.counter[i] != 0 {
				break
			}
		}
	}
}
