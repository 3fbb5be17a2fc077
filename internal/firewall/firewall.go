// Package firewall implements the paper's FW workload: a small
// sequential-search packet filter. Each packet is checked against every
// rule in order; the first match decides its fate. The paper uses 1000
// rules precisely because that rule set fits in the L2 cache, making FW
// the workload that benefits from all levels of the hierarchy and is
// therefore the least sensitive and least aggressive flow type.
package firewall

import (
	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/netpkt"
	"pktpredict/internal/rng"
)

// fnFirewall attributes filter work in profiles.
var fnFirewall = hw.RegisterFunc("firewall_filter")

// Action is a rule's disposition.
type Action uint8

const (
	// Deny drops matching packets.
	Deny Action = iota
	// Allow passes matching packets explicitly.
	Allow
)

// Rule matches on source/destination prefixes, a destination port range,
// and protocol (0 = any). The in-memory layout packs two rules per cache
// line, as a production filter's rule array would.
type Rule struct {
	Src, SrcMask   uint32
	Dst, DstMask   uint32
	PortLo, PortHi uint16
	Proto          uint8
	Act            Action
}

// Matches reports whether r matches the packet tuple.
func (r Rule) Matches(ft netpkt.FiveTuple) bool {
	if ft.Src&r.SrcMask != r.Src&r.SrcMask {
		return false
	}
	if ft.Dst&r.DstMask != r.Dst&r.DstMask {
		return false
	}
	if ft.DstPort < r.PortLo || ft.DstPort > r.PortHi {
		return false
	}
	if r.Proto != 0 && ft.Proto != r.Proto {
		return false
	}
	return true
}

// ruleSimBytes is each rule's simulated size: 32 bytes, two per line.
const ruleSimBytes = 32

// Filter is the sequential rule list.
type Filter struct {
	rules  []Rule
	region mem.Region
}

// NewFilter allocates the rule array from arena.
func NewFilter(arena *mem.Arena, rules []Rule) *Filter {
	if len(rules) == 0 {
		panic("firewall: empty rule set")
	}
	return &Filter{
		rules:  rules,
		region: mem.NewRegion(arena, len(rules), ruleSimBytes, false),
	}
}

// SimBytes returns the simulated footprint of the rule array.
func (f *Filter) SimBytes() uint64 { return f.region.Size() }

// Check scans the rules in order and returns the action of the first
// match, or Allow if nothing matches (default-allow, as in the paper's
// setup where crafted traffic matches no rule and is always forwarded
// after the full scan). Every examined rule emits its line load, so a
// no-match packet walks the entire array — the paper's worst case.
//
//dataplane:stamped emits under the caller's Ctx bracket (called from Element.Process)
func (f *Filter) Check(ctx *click.Ctx, ft netpkt.FiveTuple) (Action, bool) {
	old := ctx.SetFunc(fnFirewall)
	defer ctx.SetFunc(old)
	prevLine := ^hw.Addr(0) // sentinel: no line loaded yet
	for i := range f.rules {
		addr := f.region.Addr(i)
		if line := hw.LineOf(addr); line != prevLine {
			ctx.Load(line)
			prevLine = line
		}
		ctx.Compute(16, 14) // field comparisons and branches per rule
		if f.rules[i].Matches(ft) {
			return f.rules[i].Act, true
		}
	}
	return Allow, false
}

// CheckPlain is Check without trace emission, for tests.
func (f *Filter) CheckPlain(ft netpkt.FiveTuple) (Action, bool) {
	for i := range f.rules {
		if f.rules[i].Matches(ft) {
			return f.rules[i].Act, true
		}
	}
	return Allow, false
}

// NoMatchRules generates n deny rules that can never match generated
// traffic: their source prefixes sit in 240.0.0.0/4 (class E), which the
// traffic generators never emit... except that generators draw source
// addresses uniformly at random, so class-E sources do occur. The rules
// therefore additionally require a destination port range of [1,0], which
// is unsatisfiable. This reproduces the paper's setup where every packet
// is checked against all rules.
func NoMatchRules(n int, seed uint64) []Rule {
	r := rng.New(seed)
	rules := make([]Rule, n)
	for i := range rules {
		rules[i] = Rule{
			Src: 0xF0000000 | (r.Uint32() >> 4), SrcMask: 0xFFFFFF00,
			Dst: r.Uint32(), DstMask: 0xFFFF0000,
			PortLo: 1, PortHi: 0, // empty port range: unsatisfiable
			Proto: netpkt.ProtoTCP,
			Act:   Deny,
		}
	}
	return rules
}

// Element is the IPFilter click element.
type Element struct {
	Filter *Filter
}

// Process implements click.Element.
func (e *Element) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	ft, err := netpkt.ExtractFiveTuple(p.Data)
	if err != nil {
		return click.Drop
	}
	act, _ := e.Filter.Check(ctx, ft)
	if act == Deny {
		return click.Drop
	}
	return click.Continue
}

// filterArgs is what IPFilter(...) decodes into.
type filterArgs struct {
	rules int
	seed  uint64
}

func init() {
	click.Register("IPFilter", []click.Key[filterArgs]{
		click.Int("RULES", "[1,)", func(a *filterArgs) *int { return &a.rules }),
		click.Uint("SEED", "", func(a *filterArgs) *uint64 { return &a.seed }),
	}, func(env *click.Env) filterArgs {
		return filterArgs{rules: 1000, seed: env.Seed}
	}, func(env *click.Env, a filterArgs) (interface{}, error) {
		return &Element{Filter: NewFilter(env.Arena, NoMatchRules(a.rules, a.seed))}, nil
	})
}
