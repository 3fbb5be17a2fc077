package elements

import (
	"fmt"
	"strconv"
	"strings"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/netpkt"
)

// Router elements steer packets among numbered output ports, turning a
// linear chain into a branching service graph. They are the ported core
// of Click's Classifier/IPClassifier/Tee/RoundRobinSwitch elements: real
// matching on real packet bytes, with the corresponding load/compute
// trace emitted per pattern evaluated.

var (
	fnClassifier   = hw.RegisterFunc("classifier")
	fnIPClassifier = hw.RegisterFunc("ip_classifier")
)

// Per-pattern evaluation costs: a handful of compares and branches.
const (
	classifyCompute = 6
	classifyInstrs  = 6
)

// bytePattern matches packet bytes at a fixed offset under a nibble
// mask, Click's Classifier pattern ("12/0800", wildcards as '?').
type bytePattern struct {
	catchAll bool
	offset   int
	value    []byte
	mask     []byte
}

func parseBytePattern(s string) (bytePattern, error) {
	if s == "-" {
		return bytePattern{catchAll: true}, nil
	}
	offStr, hexStr, ok := strings.Cut(s, "/")
	if !ok {
		return bytePattern{}, fmt.Errorf("elements: Classifier pattern %q is not offset/hex or -", s)
	}
	off, err := strconv.Atoi(offStr)
	if err != nil || off < 0 {
		return bytePattern{}, fmt.Errorf("elements: Classifier pattern %q: bad offset", s)
	}
	if hexStr == "" || len(hexStr)%2 != 0 {
		return bytePattern{}, fmt.Errorf("elements: Classifier pattern %q: hex bytes must come in pairs", s)
	}
	p := bytePattern{offset: off, value: make([]byte, len(hexStr)/2), mask: make([]byte, len(hexStr)/2)}
	for i := 0; i < len(hexStr); i += 2 {
		var v, m byte
		for j := 0; j < 2; j++ {
			c := hexStr[i+j]
			v <<= 4
			m <<= 4
			if c == '?' {
				continue
			}
			d, ok := hexDigit(c)
			if !ok {
				return bytePattern{}, fmt.Errorf("elements: Classifier pattern %q: bad hex digit %q", s, c)
			}
			v |= d
			m |= 0x0f
		}
		p.value[i/2] = v
		p.mask[i/2] = m
	}
	return p, nil
}

func hexDigit(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

func (p bytePattern) matches(data []byte) bool {
	if p.catchAll {
		return true
	}
	if p.offset+len(p.value) > len(data) {
		return false
	}
	for i := range p.value {
		if data[p.offset+i]&p.mask[i] != p.value[i] {
			return false
		}
	}
	return true
}

// Classifier routes each packet out the port of the first byte pattern
// it matches, dropping packets that match none — Click's Classifier.
// Patterns are positional arguments: "offset/hexbytes" (hex digits, '?'
// wildcards) or "-" for a catch-all.
type Classifier struct {
	patterns []bytePattern
	span     int // rightmost byte any pattern examines
}

// NewClassifier builds a classifier from pattern strings.
func NewClassifier(patterns []string) (*Classifier, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("elements: Classifier needs at least one pattern")
	}
	c := &Classifier{}
	for _, s := range patterns {
		p, err := parseBytePattern(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		if end := p.offset + len(p.value); end > c.span {
			c.span = end
		}
		c.patterns = append(c.patterns, p)
	}
	return c, nil
}

// NumOutputs implements click.Router: one port per pattern.
func (c *Classifier) NumOutputs() int { return len(c.patterns) }

// Process implements click.Element: it loads the examined packet range
// once, then evaluates patterns in order.
func (c *Classifier) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	old := ctx.SetFunc(fnClassifier)
	defer ctx.SetFunc(old)
	if c.span > 0 {
		n := c.span
		if n > len(p.Data) {
			n = len(p.Data)
		}
		ctx.LoadBytes(p.Addr, n)
	}
	for i, pat := range c.patterns {
		ctx.Compute(classifyCompute, classifyInstrs)
		if pat.matches(p.Data) {
			return click.Output(i)
		}
	}
	return click.Drop
}

// ipPattern is one IPClassifier-lite pattern over the parsed 5-tuple.
type ipPattern struct {
	catchAll bool
	proto    uint8  // 0 = any IPv4
	dstPort  uint16 // 0 = any
}

func parseIPPattern(s string) (ipPattern, error) {
	switch s {
	case "-", "ip":
		return ipPattern{catchAll: true}, nil
	}
	protoStr, portStr, hasPort := strings.Cut(s, "/")
	var p ipPattern
	switch protoStr {
	case "tcp":
		p.proto = netpkt.ProtoTCP
	case "udp":
		p.proto = netpkt.ProtoUDP
	default:
		return ipPattern{}, fmt.Errorf("elements: IPClassifier pattern %q: want tcp, udp, ip, tcp/<dport>, udp/<dport>, or -", s)
	}
	if hasPort {
		port, err := strconv.ParseUint(portStr, 10, 16)
		if err != nil || port == 0 {
			return ipPattern{}, fmt.Errorf("elements: IPClassifier pattern %q: bad destination port", s)
		}
		p.dstPort = uint16(port)
	}
	return p, nil
}

func (p ipPattern) matches(ft netpkt.FiveTuple) bool {
	if p.catchAll {
		return true
	}
	if ft.Proto != p.proto {
		return false
	}
	return p.dstPort == 0 || ft.DstPort == p.dstPort
}

// IPClassifier routes by transport protocol and destination port — a
// deliberately small subset of Click's IPClassifier expression language,
// enough for protocol-split service chains. Patterns are positional
// arguments: "tcp", "udp", "tcp/<dport>", "udp/<dport>", "ip", or "-".
// Packets matching no pattern (including unparseable ones) are dropped.
type IPClassifier struct {
	patterns []ipPattern
}

// NewIPClassifier builds the classifier from pattern strings.
func NewIPClassifier(patterns []string) (*IPClassifier, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("elements: IPClassifier needs at least one pattern")
	}
	c := &IPClassifier{}
	for _, s := range patterns {
		p, err := parseIPPattern(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		c.patterns = append(c.patterns, p)
	}
	return c, nil
}

// NumOutputs implements click.Router.
func (c *IPClassifier) NumOutputs() int { return len(c.patterns) }

// Process implements click.Element.
func (c *IPClassifier) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	old := ctx.SetFunc(fnIPClassifier)
	defer ctx.SetFunc(old)
	ctx.LoadBytes(p.Addr, netpkt.IPv4HeaderLen+4)
	ft, err := netpkt.ExtractFiveTuple(p.Data)
	if err != nil {
		return click.Drop
	}
	for i, pat := range c.patterns {
		ctx.Compute(classifyCompute, classifyInstrs)
		if pat.matches(ft) {
			return click.Output(i)
		}
	}
	return click.Drop
}

// Tee sends every packet down every connected output port (Click's Tee).
// The branches process the same packet bytes sequentially.
type Tee struct {
	outputs int // 0 = adapt to connected ports
}

// NewTee builds a tee; outputs of 0 adapts to the connected port count.
func NewTee(outputs int) *Tee { return &Tee{outputs: outputs} }

// NumOutputs implements click.Router.
func (t *Tee) NumOutputs() int {
	if t.outputs <= 0 {
		return click.AdaptiveOutputs
	}
	return t.outputs
}

// Process implements click.Element.
func (t *Tee) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	ctx.Compute(4, 4)
	return click.Broadcast
}

// RoundRobinSwitch cycles packets across its connected output ports in
// order, Click's element of the same name — load balancing without
// flow affinity.
type RoundRobinSwitch struct {
	n    int
	next int
}

// NumOutputs implements click.Router.
func (r *RoundRobinSwitch) NumOutputs() int { return click.AdaptiveOutputs }

// SetOutputs implements click.OutputsSetter.
func (r *RoundRobinSwitch) SetOutputs(n int) { r.n = n }

// Process implements click.Element.
func (r *RoundRobinSwitch) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	ctx.Compute(4, 4)
	if r.n == 0 {
		return click.Continue
	}
	port := r.next
	r.next = (r.next + 1) % r.n
	return click.Output(port)
}

func init() {
	click.Register("Classifier", []click.Key[string]{
		click.Positional(click.String("PATTERN", func(p *string) *string { return p })),
	}, nil, func(_ *click.Env, patterns string) (interface{}, error) {
		return NewClassifier(strings.Fields(patterns))
	})
	click.Register("IPClassifier", []click.Key[string]{
		click.Positional(click.String("PATTERN", func(p *string) *string { return p })),
	}, nil, func(_ *click.Env, patterns string) (interface{}, error) {
		return NewIPClassifier(strings.Fields(patterns))
	})
	click.Register("Tee", []click.Key[int]{
		click.Positional(click.Int("OUTPUTS", "[0,)", func(n *int) *int { return n })),
	}, nil, func(_ *click.Env, outputs int) (interface{}, error) {
		return NewTee(outputs), nil
	})
	bare("RoundRobinSwitch", func(*click.Env) interface{} { return &RoundRobinSwitch{} })
}
