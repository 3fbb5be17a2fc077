package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	gort "runtime"
	"strings"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/exp"
	"pktpredict/internal/hw"
	"pktpredict/internal/runtime"
)

// profileCheck is one core.Predictor driven over a set of flow types
// from outside: the timings of its three steps, the raw counters of
// every window it measured, and the predictor itself for further
// questions. engine_profile uses it as its output check; the other
// workloads' traced passes use it as the core layer's isolation.
type profileCheck struct {
	soloS, sweepS, curveS float64
	simPkts               uint64                   // target packets in all solo and sweep windows
	digests               map[apps.FlowType]string // sha256 over the type's raw window counters
	pred                  *core.Predictor
}

func (e *env) runProfileCheck(scale exp.Scale, cfg hw.Config, params apps.Params, types []apps.FlowType) (*profileCheck, error) {
	p := core.NewPredictor(cfg, params, scale.Warmup, scale.Window)
	if len(scale.SweepGrid) > 0 {
		p.SweepGrid = scale.SweepGrid
	}
	c := &profileCheck{digests: map[apps.FlowType]string{}, pred: p}
	for _, typ := range types {
		t := e.tr.begin("core.Predictor.Solo")
		solo, err := p.Solo(typ)
		c.soloS += t.end().Seconds()
		if err != nil {
			return nil, err
		}
		t = e.tr.begin("core.Predictor.Sweep")
		samples, err := p.Sweep(typ)
		c.sweepS += t.end().Seconds()
		if err != nil {
			return nil, err
		}
		t = e.tr.begin("core.Predictor.Curve")
		_, err = p.Curve(typ)
		c.curveS += t.end().Seconds()
		if err != nil {
			return nil, err
		}

		// ProfileFlows returns only derived rates; the integer counters
		// behind them are the thing two commits must agree on exactly.
		h := sha256.New()
		windows := []hw.Counters{solo.Raw}
		for _, s := range samples {
			windows = append(windows, s.Target.Raw)
		}
		for _, w := range windows {
			c.simPkts += w.Packets
			if err := binary.Write(h, binary.LittleEndian, w); err != nil {
				return nil, err
			}
		}
		c.digests[typ] = hex.EncodeToString(h.Sum(nil))
	}
	return c, nil
}

// combined folds the per-type digests into one, in the given type order.
func (c *profileCheck) combined(types []apps.FlowType) string {
	h := sha256.New()
	for _, t := range types {
		fmt.Fprintf(h, "%s %s\n", t, c.digests[t])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameProfile compares two profiles by the bit patterns of every number
// in them: the engine is deterministic, so anything short of identity is
// a failure, not noise.
func sameProfile(a, b runtime.FlowProfile) bool {
	bits := math.Float64bits
	if bits(a.SoloPPS) != bits(b.SoloPPS) || bits(a.SoloRefsPerSec) != bits(b.SoloRefsPerSec) ||
		len(a.Curve.Points) != len(b.Curve.Points) || len(a.Elements) != len(b.Elements) {
		return false
	}
	for i, p := range a.Curve.Points {
		q := b.Curve.Points[i]
		if bits(p.CompetingRefsPerSec) != bits(q.CompetingRefsPerSec) || bits(p.Drop) != bits(q.Drop) {
			return false
		}
	}
	for name, x := range a.Elements {
		y, ok := b.Elements[name]
		if !ok || bits(x.CyclesPerPacket) != bits(y.CyclesPerPacket) || bits(x.RefsPerPacket) != bits(y.RefsPerPacket) {
			return false
		}
	}
	return true
}

func goldenPath(e *env) string { return filepath.Join(e.dir, "golden", "engine_profile.digest") }

// readGolden loads the committed per-type digests ("TYPE hex" lines).
func readGolden(path string) (map[apps.FlowType]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[apps.FlowType]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && !strings.HasPrefix(fields[0], "#") {
			out[apps.FlowType(fields[0])] = fields[1]
		}
	}
	return out, sc.Err()
}

func writeGolden(path string, types []apps.FlowType, c *profileCheck) error {
	var b strings.Builder
	b.WriteString("# sha256 over the raw hw.Counters of every solo and sweep window, per flow\n")
	b.WriteString("# type, at quick scale. Rewritten by `-update-golden`, in a benchmark PR only.\n")
	for _, t := range types {
		fmt.Fprintf(&b, "%s %s\n", t, c.digests[t])
	}
	fmt.Fprintf(&b, "all %s\n", c.combined(types))
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// engineMix places the mix on cores 0..n-1 of socket 0 with local data,
// seeded the way Predictor.MeasureMix seeds it.
func engineMix(scale exp.Scale, cfg hw.Config, params apps.Params, mix []apps.FlowType) core.Scenario {
	sc := core.Scenario{Cfg: cfg, Params: params, Warmup: scale.Warmup, Window: scale.Window}
	for i, t := range mix {
		sc.Flows = append(sc.Flows, core.FlowSpec{Type: t, Core: i, Seed: core.SeedFor(t, i)})
	}
	return sc
}

func runEngineProfile(e *env) (*result, error) {
	r := newResult()
	scale := e.quick()
	setup := e.beginSetup()

	text, err := e.template(r, "profile_mix.click")
	if err != nil {
		return nil, err
	}
	t := e.tr.begin("scenario.Load")
	cfg, err := loadScenario(text, scale)
	t.end()
	if err != nil {
		return nil, fmt.Errorf("profile_mix.click: %w", err)
	}
	if e.smoke {
		cfg.Apps = cfg.Apps[:2] // two types are enough to walk the code path
	}
	types, mix := cfg.FlowTypes(), flowMix(cfg)
	profile := func() (map[apps.FlowType]runtime.FlowProfile, float64, error) {
		t := e.tr.begin("runtime.ProfileFlows")
		prof, err := runtime.ProfileFlows(cfg.Cfg, cfg.Params, scale.Warmup, scale.Window, scale.SweepGrid, types)
		return prof, t.end().Seconds(), err
	}
	first, _, err := profile()
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	e.endSetup(r, setup)

	builds := 5
	if e.smoke {
		builds = 1
	}
	// passOK[i][type]: pass i returned the warm-up pass's profile, bit for bit.
	var passOK []map[apps.FlowType]bool
	err = e.measure(r, func(i int) (float64, error) {
		gort.GC()
		m0 := memStats()
		prof, seconds, perr := profile()
		r.add("alloc_mb", float64(memStats().TotalAlloc-m0.TotalAlloc)/mib)
		ok := map[apps.FlowType]bool{}
		var soloPPS float64
		for _, typ := range types {
			ok[typ] = perr == nil && sameProfile(prof[typ], first[typ])
			soloPPS += prof[typ].SoloPPS
		}
		passOK = append(passOK, ok)
		r.add("virt_mpps", soloPPS/1e6)

		// The engine's counterpart of NewRuntime: build the six-flow check
		// mix (platform, tables, sources) without running it. It takes
		// milliseconds, so each pass samples it several times.
		var built *core.RunResult
		for range builds {
			gort.GC()
			t := e.tr.begin("core.Scenario.Build")
			res, err := engineMix(scale, cfg.Cfg, cfg.Params, mix).Build()
			r.add("build_s", t.end().Seconds())
			if err != nil {
				return 0, err
			}
			built = res
		}
		r.add("heap_mb", e.liveHeapMB())
		gort.KeepAlive(built)
		return seconds, nil
	})
	if err != nil {
		return nil, err
	}

	// The output check, untimed: a predictor driven step by step yields
	// the raw counters for the digest and predicted-versus-measured drops
	// of the check mix, engine against engine, so the figure is exact.
	t = e.tr.begin("check")
	check, err := e.runProfileCheck(scale, cfg.Cfg, cfg.Params, types)
	if err != nil {
		return nil, fmt.Errorf("check predictor: %w", err)
	}
	pt := e.tr.begin("core.Predictor.PredictMix")
	pred, _, err := check.pred.PredictMix(mix)
	pt.end()
	if err != nil {
		return nil, err
	}
	pt = e.tr.begin("core.Predictor.MeasuredDrops")
	meas, _, err := check.pred.MeasuredDrops(mix)
	pt.end()
	if err != nil {
		return nil, err
	}
	t.end()
	worst := 0.0
	for i := range pred {
		worst = math.Max(worst, math.Abs(pred[i].Drop-meas[i]))
	}
	r.add("pred_acc_pct", 100-worst*100)
	for i, s := range r.samples["rep_s"] { // in reference seconds already
		r.add("host_ns_per_pkt", s*1e9/float64(check.simPkts))
		r.raw["host_ns_per_pkt"] = append(r.raw["host_ns_per_pkt"], r.raw["rep_s"][i]*1e9/float64(check.simPkts))
	}
	r.digest = check.combined(types)

	// The flow types take their seeds from core.SeedFor, which no public
	// knob reaches, so the golden digest holds at every -seed. Only the
	// smoke size, with its own windows, has nothing to compare against.
	golden := map[apps.FlowType]string{}
	switch {
	case e.smoke:
	case e.updateGolden:
		if err := writeGolden(goldenPath(e), types, check); err != nil {
			return nil, err
		}
		golden = check.digests
	default:
		if golden, err = readGolden(goldenPath(e)); err != nil {
			return nil, fmt.Errorf("golden digest: %w", err)
		}
	}
	for i, ok := range passOK {
		for _, typ := range types {
			r.op(ok[typ] && (e.smoke || golden[typ] == check.digests[typ]),
				"pass %d type %s: identical to first pass %v, digest %s, golden %q", i, typ, ok[typ], check.digests[typ], golden[typ])
		}
	}
	if !e.traced {
		return r, nil
	}
	p := probe{scale: scale, profScale: scale, cfg: cfg, text: text, duration: 0.01, check: check}
	if e.smoke {
		p.duration = smokeDuration
	}
	return r, isolate(e, r, p)
}
