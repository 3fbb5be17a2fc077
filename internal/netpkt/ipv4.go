// Package netpkt implements the wire formats the packet-processing
// applications operate on: IPv4 headers with RFC 1071 checksums and
// TCP/UDP 5-tuple extraction. Everything works on real bytes — packets in
// this system carry genuine, parseable headers, and the forwarding path
// performs genuine checksum arithmetic, exactly the work the paper's "full
// IP forwarding" performs per packet.
package netpkt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// IPv4HeaderLen is the length of an IPv4 header without options. All
// traffic generated in this system uses option-less headers, as do the
// paper's generators.
const IPv4HeaderLen = 20

// Protocol numbers used by the workloads.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Errors returned by CheckIPHeader-style validation.
var (
	ErrTooShort     = errors.New("netpkt: packet shorter than IPv4 header")
	ErrBadVersion   = errors.New("netpkt: not an IPv4 packet")
	ErrBadHeaderLen = errors.New("netpkt: bad IHL")
	ErrBadChecksum  = errors.New("netpkt: header checksum mismatch")
	ErrBadLength    = errors.New("netpkt: total length exceeds packet")
	ErrTTLExpired   = errors.New("netpkt: TTL expired")
)

// IPv4Header is a decoded IPv4 header.
type IPv4Header struct {
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Proto    uint8
	Src      uint32
	Dst      uint32
}

// AddrString renders a uint32 IPv4 address in dotted-quad form.
func AddrString(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// ParseIPv4 decodes and validates the IPv4 header at the start of b,
// performing the checks Click's CheckIPHeader element performs: version,
// header length, total length, and header checksum.
func ParseIPv4(b []byte) (IPv4Header, error) {
	var h IPv4Header
	if len(b) < IPv4HeaderLen {
		return h, ErrTooShort
	}
	if b[0]>>4 != 4 {
		return h, ErrBadVersion
	}
	if ihl := int(b[0]&0x0f) * 4; ihl != IPv4HeaderLen {
		return h, ErrBadHeaderLen
	}
	h.TotalLen = binary.BigEndian.Uint16(b[2:])
	if int(h.TotalLen) > len(b) || int(h.TotalLen) < IPv4HeaderLen {
		return h, ErrBadLength
	}
	h.ID = binary.BigEndian.Uint16(b[4:])
	h.TTL = b[8]
	h.Proto = b[9]
	h.Src = binary.BigEndian.Uint32(b[12:])
	h.Dst = binary.BigEndian.Uint32(b[16:])
	if Checksum(b[:IPv4HeaderLen]) != 0 {
		return h, ErrBadChecksum
	}
	return h, nil
}

// WriteIPv4 encodes h (with a freshly computed checksum) into b, which
// must have room for IPv4HeaderLen bytes.
func WriteIPv4(b []byte, h IPv4Header) {
	_ = b[IPv4HeaderLen-1]
	b[0] = 0x45
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	binary.BigEndian.PutUint16(b[6:], 0) // no fragmentation
	b[8] = h.TTL
	b[9] = h.Proto
	binary.BigEndian.PutUint16(b[10:], 0)
	binary.BigEndian.PutUint32(b[12:], h.Src)
	binary.BigEndian.PutUint32(b[16:], h.Dst)
	binary.BigEndian.PutUint16(b[10:], Checksum(b[:IPv4HeaderLen]))
}

// Checksum computes the RFC 1071 Internet checksum over b. Computing it
// over a header whose checksum field holds the correct value yields 0.
func Checksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// DecTTL performs the forwarding-path TTL decrement on the raw header in
// b, updating the checksum incrementally per RFC 1624 rather than
// recomputing it — the same optimisation real forwarding paths (and
// Click's DecIPTTL) use. It returns ErrTTLExpired without modifying the
// packet when the TTL is already ≤ 1.
func DecTTL(b []byte) error {
	_ = b[IPv4HeaderLen-1]
	if b[8] <= 1 {
		return ErrTTLExpired
	}
	// RFC 1624: HC' = ~(~HC + ~m + m'), with m the 16-bit word containing
	// the TTL. TTL is the high byte of word 4 (bytes 8-9).
	old := binary.BigEndian.Uint16(b[8:])
	b[8]--
	new_ := binary.BigEndian.Uint16(b[8:])
	hc := binary.BigEndian.Uint16(b[10:])
	sum := uint32(^hc) + uint32(^old&0xffff) + uint32(new_)
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	binary.BigEndian.PutUint16(b[10:], ^uint16(sum))
	return nil
}

// RewriteSrc rewrites the packet's IPv4 source address in place —
// the NAT data-path operation — updating the header checksum
// incrementally per RFC 1624 rather than recomputing it. For TCP/UDP
// packets long enough to carry ports, the source port is rewritten too.
// (Transport checksums are not maintained: generated traffic carries
// zero L4 checksums, as the paper's crafted traffic does.)
func RewriteSrc(b []byte, src uint32, srcPort uint16) error {
	if len(b) < IPv4HeaderLen {
		return ErrTooShort
	}
	// RFC 1624: HC' = ~(~HC + Σ(~m + m')) over the changed 16-bit words;
	// the source address occupies words 6 and 7 (bytes 12-15).
	old1 := binary.BigEndian.Uint16(b[12:])
	old2 := binary.BigEndian.Uint16(b[14:])
	binary.BigEndian.PutUint32(b[12:], src)
	new1 := binary.BigEndian.Uint16(b[12:])
	new2 := binary.BigEndian.Uint16(b[14:])
	hc := binary.BigEndian.Uint16(b[10:])
	sum := uint32(^hc) + uint32(^old1) + uint32(new1) + uint32(^old2) + uint32(new2)
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	binary.BigEndian.PutUint16(b[10:], ^uint16(sum))
	if proto := b[9]; (proto == ProtoTCP || proto == ProtoUDP) && len(b) >= IPv4HeaderLen+2 {
		binary.BigEndian.PutUint16(b[IPv4HeaderLen:], srcPort)
	}
	return nil
}

// FiveTuple identifies a transport-layer flow.
type FiveTuple struct {
	Src, Dst         uint32
	SrcPort, DstPort uint16
	Proto            uint8
}

// ExtractFiveTuple reads the 5-tuple from a packet with an IPv4 header at
// offset 0 followed by a TCP/UDP header. Non-TCP/UDP packets yield zero
// ports.
func ExtractFiveTuple(b []byte) (FiveTuple, error) {
	h, err := ParseIPv4(b)
	if err != nil {
		return FiveTuple{}, err
	}
	ft := FiveTuple{Src: h.Src, Dst: h.Dst, Proto: h.Proto}
	if (h.Proto == ProtoTCP || h.Proto == ProtoUDP) && len(b) >= IPv4HeaderLen+4 {
		ft.SrcPort = binary.BigEndian.Uint16(b[IPv4HeaderLen:])
		ft.DstPort = binary.BigEndian.Uint16(b[IPv4HeaderLen+2:])
	}
	return ft, nil
}

// Hash returns a 64-bit hash of the 5-tuple using an FNV-1a-style mix —
// the per-packet hashing step NetFlow-style monitoring performs.
func (ft FiveTuple) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64, bytes int) {
		for i := 0; i < bytes; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(ft.Src), 4)
	mix(uint64(ft.Dst), 4)
	mix(uint64(ft.SrcPort), 2)
	mix(uint64(ft.DstPort), 2)
	mix(uint64(ft.Proto), 1)
	return h
}
