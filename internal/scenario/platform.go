package scenario

import (
	"errors"
	"fmt"
	"strings"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
)

// Platform is a scenario file's platform override block:
//
//	platform :: Platform(SOCKETS 2, CORES_PER_SOCKET 4, L3_BYTES 6291456);
//
// It is a partial hw.Config: the values of the keys the block named, and
// which ones those were, so a block overrides only what it names and
// inherits everything else from the layer below it. A sweep's Platform
// variant and the -platform flag are Platforms too; Scenario.Config
// layers them.
type Platform struct {
	label string    // the layer's name, which every error about it starts with
	named uint64    // bit i: platformKeys[i] was named
	cfg   hw.Config // the named keys' values, in the fields they override
	// lineBytes is an assertion, not an override: the cache-line size is a
	// build constant (hw.LineSize), and a file declaring LINE_BYTES fails
	// loudly when loaded on a build with different geometry. The value is
	// kept so Render preserves the assertion.
	lineBytes int
}

// maxWays is the widest associativity hw.NewCache builds: its recency word
// indexes at most 128 ways (TestWaysLimitIsHWs holds the two together).
const maxWays = 128

// platformKeys declares every Platform(...) key, each landing in the
// hw.Config field it overrides.
var platformKeys = func() []click.Key[Platform] {
	size := fmt.Sprintf("[%d,%d]", hw.LineSize, 1<<30)
	ways := fmt.Sprintf("[1,%d]", maxWays)
	return []click.Key[Platform]{
		click.Int("SOCKETS", "[1,64]", func(p *Platform) *int { return &p.cfg.Sockets }),
		click.Int("CORES_PER_SOCKET", "[1,1024]", func(p *Platform) *int { return &p.cfg.CoresPerSocket }),
		click.Float("CLOCK_HZ", "(0,)", func(p *Platform) *float64 { return &p.cfg.ClockHz }),
		click.Int("L1_BYTES", size, func(p *Platform) *int { return &p.cfg.L1D.SizeBytes }),
		click.Int("L1_WAYS", ways, func(p *Platform) *int { return &p.cfg.L1D.Ways }),
		click.Int("L2_BYTES", size, func(p *Platform) *int { return &p.cfg.L2.SizeBytes }),
		click.Int("L2_WAYS", ways, func(p *Platform) *int { return &p.cfg.L2.Ways }),
		click.Int("L3_BYTES", size, func(p *Platform) *int { return &p.cfg.L3.SizeBytes }),
		click.Int("L3_WAYS", ways, func(p *Platform) *int { return &p.cfg.L3.Ways }),
		click.NewKey("L3_POLICY", "", func(p *Platform) *hw.ReplacementPolicy { return &p.cfg.L3Policy }, parsePolicy, policyName),
		click.Bool("INCLUSIVE_L3", func(p *Platform) *bool { return &p.cfg.InclusiveL3 }),
		click.Int("LINE_BYTES", fmt.Sprintf("[%d,%[1]d]", hw.LineSize), func(p *Platform) *int { return &p.lineBytes }),
		click.Uint("L1_CYCLES", "", func(p *Platform) *uint64 { return &p.cfg.L1Latency }),
		click.Uint("L2_CYCLES", "", func(p *Platform) *uint64 { return &p.cfg.L2Latency }),
		click.Uint("L3_CYCLES", "", func(p *Platform) *uint64 { return &p.cfg.L3Latency }),
		click.Uint("DRAM_CYCLES", "", func(p *Platform) *uint64 { return &p.cfg.DRAMLatency }),
		click.Uint("MEM_CYCLES", "", func(p *Platform) *uint64 { return &p.cfg.MemCtrlService }), // memory-controller occupancy per line
		click.Uint("QPI_CYCLES", "", func(p *Platform) *uint64 { return &p.cfg.QPILatency }),     // one-way remote-access latency
		click.Uint("QPI_SERVICE", "", func(p *Platform) *uint64 { return &p.cfg.QPIService }),
		click.Uint("STREAM_MLP", "[1,)", func(p *Platform) *uint64 { return &p.cfg.StreamMLP }),
	}
}()

var policyNames = [...]string{hw.ReplaceLRU: "LRU", hw.ReplaceRandom: "RANDOM"}

func policyName(p hw.ReplacementPolicy) string { return policyNames[p] }

func parsePolicy(s string) (hw.ReplacementPolicy, error) {
	for p, name := range policyNames {
		if strings.EqualFold(s, name) {
			return hw.ReplacementPolicy(p), nil
		}
	}
	return 0, errors.New("is not a replacement policy (want LRU or RANDOM)")
}

// ParsePlatformArgs builds a Platform from a Platform(...) argument
// list; label names the layer in its parse and Apply errors. It is
// exported for the sweep harness, whose grid files declare platform
// variants with the same argument grammar.
func ParsePlatformArgs(label string, args click.Args) (*Platform, error) {
	p := &Platform{label: label}
	if err := click.Decode(label, platformKeys, args, p); err != nil {
		return nil, err
	}
	for i, k := range platformKeys {
		if _, ok := args.Keyword[k.Name]; ok {
			p.named |= 1 << i
		}
	}
	return p, nil
}

// ParseOverrides parses a comma-separated "KEY VALUE, KEY VALUE" list —
// the -platform flag's syntax, identical to the keys of a scenario
// file's Platform(...) block — as the layer named -platform.
func ParseOverrides(s string) (*Platform, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	return ParsePlatformArgs("-platform", click.ParseArgs(click.SplitTopLevel(s, ",")))
}

// Apply overlays the block's named keys on base and validates the
// result's cache geometry (sizes must be whole numbers of line-sized
// ways and no level wider than maxWays, or hw would panic building the
// caches).
func (p *Platform) Apply(base hw.Config) (hw.Config, error) {
	if p == nil {
		return base, nil
	}
	out := Platform{cfg: base}
	for i, k := range platformKeys {
		if p.named>>i&1 == 1 {
			k.Assign(&out, p)
		}
	}
	cfg := out.cfg
	for _, lvl := range []struct {
		name string
		g    hw.CacheGeom
	}{{"L1", cfg.L1D}, {"L2", cfg.L2}, {"L3", cfg.L3}} {
		span := hw.LineSize * lvl.g.Ways
		if lvl.g.Ways > maxWays {
			return hw.Config{}, fmt.Errorf("%s: %s_WAYS %d outside [1,%d]", p.label, lvl.name, lvl.g.Ways, maxWays)
		}
		if lvl.g.Ways <= 0 || lvl.g.SizeBytes <= 0 || lvl.g.SizeBytes%span != 0 {
			return hw.Config{}, fmt.Errorf("%s: %s geometry %d bytes / %d ways invalid (size must be a positive multiple of %d-byte line × ways = %d)",
				p.label, lvl.name, lvl.g.SizeBytes, lvl.g.Ways, hw.LineSize, span)
		}
	}
	return cfg, nil
}
