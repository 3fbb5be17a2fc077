package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"pktpredict/internal/apps"
	"pktpredict/internal/hw"
)

// CurvePoint is one sample of a target flow's drop-versus-competition
// profile.
type CurvePoint struct {
	CompetingRefsPerSec float64
	Drop                float64
}

// Curve is a flow type's contention profile: measured performance drop as
// a function of aggregate competing L3 references per second, obtained by
// co-running the flow with SYN competitors at ramped rates (the paper's
// Section 4, step 2).
type Curve struct {
	Target apps.FlowType
	Points []CurvePoint // sorted by CompetingRefsPerSec, first is (0,0)
}

// DropAt interpolates the curve linearly at the given competition level;
// beyond the last measured point the curve is held flat, which the
// paper's "turning point" observation justifies.
func (c Curve) DropAt(refsPerSec float64) float64 {
	pts := c.Points
	if len(pts) == 0 || refsPerSec <= 0 {
		return 0
	}
	if refsPerSec >= pts[len(pts)-1].CompetingRefsPerSec {
		return pts[len(pts)-1].Drop
	}
	for i := 1; i < len(pts); i++ {
		if refsPerSec <= pts[i].CompetingRefsPerSec {
			x0, y0 := pts[i-1].CompetingRefsPerSec, pts[i-1].Drop
			x1, y1 := pts[i].CompetingRefsPerSec, pts[i].Drop
			if x1 == x0 {
				return y1
			}
			return y0 + (y1-y0)*(refsPerSec-x0)/(x1-x0)
		}
	}
	return pts[len(pts)-1].Drop
}

// String renders the curve compactly.
func (c Curve) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", c.Target)
	for _, p := range c.Points {
		fmt.Fprintf(&b, " (%.0fM,%.1f%%)", p.CompetingRefsPerSec/1e6, p.Drop*100)
	}
	return b.String()
}

// DefaultSweepGrid is the set of SYN compute-per-access values used to
// ramp competing references per second, from idle competitors to
// SYN_MAX. Lower compute means more refs/sec.
var DefaultSweepGrid = []int{3200, 1600, 800, 400, 200, 100, 50, 25, 0}

// Predictor implements the paper's three-step prediction method over a
// fixed platform configuration and workload scale. It memoises solo
// profiles and sweeps and reads every curve off them: everything is
// derived from offline profiling and reused across predictions, exactly as
// an operator would use it. Its methods may be called from several
// goroutines at once; set the exported fields before the first call.
type Predictor struct {
	Cfg       hw.Config
	Params    apps.Params
	Warmup    float64
	Window    float64
	SweepGrid []int

	mu     sync.Mutex // guards free, never held while measuring
	solo   Memo[apps.FlowType, hw.FlowStats]
	sweeps Memo[sweepKey, []SweepSample]
	mixes  Memo[string, []hw.FlowStats]
	free   []*hw.Platform // platforms no experiment is using (see measure)
}

// Memo memoises one measured quantity per key: the first caller of a key
// runs its measure, concurrent and later callers share the outcome — a
// failure too, a measurement being a pure function of its key, so it is
// never retried, and so is a panic, turned into the key's error. The zero
// Memo is ready to use.
type Memo[K comparable, T any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[T]
}

type memoEntry[T any] struct {
	once sync.Once
	val  T
	err  error
}

// Do returns k's value, running measure if k has none yet.
func (m *Memo[K, T]) Do(k K, measure func() (T, error)) (T, error) {
	m.mu.Lock()
	e := m.m[k]
	if e == nil {
		if m.m == nil {
			m.m = make(map[K]*memoEntry[T])
		}
		e = new(memoEntry[T])
		m.m[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		defer recoverAs(&e.err, "measure")
		e.val, e.err = measure()
	})
	return e.val, e.err
}

// Offline profiling is a set of independent leaf experiments: each builds
// its own flows on a platform as constructed, measures one window, and is
// a pure function of its scenario. So they run concurrently, every result
// lands in a slot addressed by its index, and at most GOMAXPROCS are live
// in the whole process: concurrent passes share that many scenarios' state.
//
// The slots are one part of the process's one CPU budget of GOMAXPROCS.
// The socket goroutines of live runtime runs are the second: counted, but
// never waiting for a slot, so profiling beside a run does not slow. The
// spare CPUs granted to runtime emitters, one quantum at a time, are the
// third, and only they wait on the other two (SpareCPU).
var (
	slotMu          sync.Mutex
	slotFreed       = sync.NewCond(&slotMu)
	liveExperiments int
	liveSockets     int
	spareCPUs       int
)

// AddSockets counts n more socket goroutines of live runs, or -n fewer.
func AddSockets(n int) {
	slotMu.Lock()
	liveSockets += n
	slotMu.Unlock()
}

// SpareCPU grants the caller one host CPU for one quantum when live
// experiments, socket goroutines and the CPUs already granted sum below
// GOMAXPROCS. ReturnCPUs gives granted CPUs back.
func SpareCPU() bool {
	slotMu.Lock()
	defer slotMu.Unlock()
	if liveExperiments+liveSockets+spareCPUs >= runtime.GOMAXPROCS(0) {
		return false
	}
	spareCPUs++
	return true
}

// ReturnCPUs gives back n CPUs that SpareCPU granted.
func ReturnCPUs(n int) {
	slotMu.Lock()
	spareCPUs -= n
	slotMu.Unlock()
}

// Experiment runs one leaf experiment holding one of the process's
// GOMAXPROCS experiment slots, taken before run builds or reuses anything
// and released when it returns. run must not wait for another Experiment.
func Experiment[T any](run func() (T, error)) (T, error) {
	slotMu.Lock()
	for liveExperiments >= runtime.GOMAXPROCS(0) {
		slotFreed.Wait()
	}
	liveExperiments++
	slotMu.Unlock()
	defer func() {
		slotMu.Lock()
		liveExperiments--
		slotMu.Unlock()
		slotFreed.Signal()
	}()
	return run()
}

// FanOut runs f(0) … f(n-1) on a goroutine each, joins them all and
// returns the lowest-index error. f writes its result to a slot addressed
// by i, so neither results nor the error depend on completion order; what
// runs at once is bounded by the experiment slots, not here. A panic in
// f(i) is f(i)'s error, naming i and where it was raised: on a goroutine
// of its own it would end the process.
func FanOut(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer recoverAs(&errs[i], fmt.Sprintf("fan-out task %d", i))
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// recoverAs, deferred, turns a panic in the deferring function into *err,
// naming what panicked and where: the first frame of the panicking stack
// that is not the runtime's own. On a goroutine of its own the panic would
// end the process, and in a memo's sync.Once it would leave the key done
// with no error. It is the one place that recovers.
func recoverAs(err *error, what string) {
	v := recover()
	if v == nil {
		return
	}
	var pcs [32]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for {
		fr, more := frames.Next()
		if !strings.HasPrefix(fr.Function, "runtime.") || !more {
			*err = fmt.Errorf("core: %s panicked in %s (%s:%d): %v", what, fr.Function, filepath.Base(fr.File), fr.Line, v)
			return
		}
	}
}

// measure co-runs flows as one leaf experiment and keeps only the window
// statistics. It takes a platform off p's free list and resets it — a new
// one when the list is empty or holds another Cfg — and puts it back once
// the window is measured, so p holds at most GOMAXPROCS platforms, one per
// experiment slot; the flows' tables are garbage once the slot is free.
func (p *Predictor) measure(flows []FlowSpec) ([]hw.FlowStats, error) {
	return Experiment(func() ([]hw.FlowStats, error) {
		p.mu.Lock()
		var platform *hw.Platform
		if n := len(p.free); n > 0 {
			platform, p.free = p.free[n-1], p.free[:n-1]
		}
		p.mu.Unlock()
		if platform == nil || platform.Cfg != p.Cfg {
			platform = hw.NewPlatform(p.Cfg)
		} else {
			platform.Reset()
		}
		defer func() {
			p.mu.Lock()
			p.free = append(p.free, platform)
			p.mu.Unlock()
		}()
		res, err := Scenario{Cfg: p.Cfg, Params: p.Params, Flows: flows}.buildOn(platform)
		if err != nil {
			return nil, err
		}
		return res.Engine.MeasureWindow(p.Warmup, p.Window), nil
	})
}

// SweepSample is one full measurement of a sweep run: the aggregate
// competition and the target's complete window statistics, from which
// both the drop curve and hit-to-miss conversion rates (Figure 7) are
// derived.
type SweepSample struct {
	CompetingRefsPerSec float64
	Target              hw.FlowStats
}

// NewPredictor builds a predictor with the paper's sweep setup.
func NewPredictor(cfg hw.Config, params apps.Params, warmup, window float64) *Predictor {
	return &Predictor{
		Cfg:       cfg,
		Params:    params,
		Warmup:    warmup,
		Window:    window,
		SweepGrid: DefaultSweepGrid,
	}
}

// Solo returns the memoised solo-run statistics of flow type t — the
// offline profile from which both the flow's aggressiveness (refs/sec)
// and its baseline throughput are read.
func (p *Predictor) Solo(t apps.FlowType) (hw.FlowStats, error) {
	return p.solo.Do(t, func() (hw.FlowStats, error) {
		stats, err := p.measure([]FlowSpec{{Type: t, Core: 0, Domain: 0, Seed: SeedFor(t, 0)}})
		if err != nil {
			return hw.FlowStats{}, fmt.Errorf("core: solo %s: %w", t, err)
		}
		return stats[0], nil
	})
}

// ContentionMode places a sweep's SYN competitors so they share the L3,
// the target's memory controller, or both with it: Figure 3's three
// configurations. The target runs on core 0 with its data in domain 0;
// competitor i (1 ≤ i < CoresPerSocket) is placed as its mode says.
type ContentionMode string

const (
	CacheOnly   ContentionMode = "cache"   // on core i, data in domain 1 (Fig. 3(a))
	MemCtrlOnly ContentionMode = "memctrl" // on core CoresPerSocket+i-1, data in domain 0 (Fig. 3(b))
	Both        ContentionMode = "both"    // on core i, data in domain 0 (Fig. 3(c)): the profiling sweep
)

// Modes lists the three configurations in the paper's order.
var Modes = []ContentionMode{CacheOnly, MemCtrlOnly, Both}

// sweepKey memoises a sweep per placement.
type sweepKey struct {
	target apps.FlowType
	mode   ContentionMode
}

// Sweep returns the memoised sweep samples of flow type t: the target's
// full statistics when co-running with SYN competitors at each grid rate
// (step 2 of the method), sorted by competition; the points run at once.
func (p *Predictor) Sweep(t apps.FlowType) ([]SweepSample, error) {
	return p.sweep(t, Both)
}

func (p *Predictor) sweep(t apps.FlowType, m ContentionMode) ([]SweepSample, error) {
	return p.sweeps.Do(sweepKey{t, m}, func() ([]SweepSample, error) {
		name := string(t)
		if m != Both {
			name += " under " + string(m)
		}
		samples := make([]SweepSample, len(p.SweepGrid))
		err := FanOut(len(samples), func(g int) error {
			k := p.SweepGrid[g]
			flows := []FlowSpec{{Type: t, Core: 0, Domain: 0, Seed: SeedFor(t, 0)}}
			for i := 1; i < p.Cfg.CoresPerSocket; i++ {
				f := FlowSpec{Type: apps.SYN, Core: i, Domain: 0, Seed: SeedFor(apps.SYN, i), SynCompute: k}
				switch m {
				case CacheOnly:
					f.Domain = 1
				case MemCtrlOnly:
					f.Core = p.Cfg.CoresPerSocket + i - 1
				}
				flows = append(flows, f)
			}
			stats, err := p.measure(flows)
			if err != nil {
				return fmt.Errorf("core: sweep %s @ SYN compute %d: %w", name, k, err)
			}
			samples[g].Target = stats[0]
			for _, s := range stats[1:] {
				samples[g].CompetingRefsPerSec += s.L3RefsPerSec()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		sort.Slice(samples, func(i, j int) bool {
			return samples[i].CompetingRefsPerSec < samples[j].CompetingRefsPerSec
		})
		return samples, nil
	})
}

// Curve returns the drop-versus-competition curve of flow type t, read
// off the memoised solo run and sweep.
func (p *Predictor) Curve(t apps.FlowType) (Curve, error) {
	return p.CurveUnder(t, Both)
}

// CurveUnder is Curve with the sweep's competitors placed by mode m:
// Figure 4's ramps. CurveUnder(t, Both) is Curve(t).
func (p *Predictor) CurveUnder(t apps.FlowType, m ContentionMode) (Curve, error) {
	if m != CacheOnly && m != MemCtrlOnly && m != Both {
		return Curve{}, fmt.Errorf("core: unknown contention mode %q", m)
	}
	solo, err := p.Solo(t)
	if err != nil {
		return Curve{}, err
	}
	samples, err := p.sweep(t, m)
	if err != nil {
		return Curve{}, err
	}
	curve := Curve{Target: t, Points: []CurvePoint{{0, 0}}}
	for _, s := range samples {
		curve.Points = append(curve.Points, CurvePoint{
			CompetingRefsPerSec: s.CompetingRefsPerSec,
			Drop:                hw.PerformanceDrop(solo, s.Target),
		})
	}
	return curve, nil
}

// Prediction is the predicted contention-induced drop for one flow.
type Prediction struct {
	CompetingRefsPerSec float64 // assumed competition (sum of solo rates)
	Drop                float64
}

// Predict runs the paper's step 3: sum the competitors' solo refs/sec and
// read the target's curve at that level.
func (p *Predictor) Predict(target apps.FlowType, competitors []apps.FlowType) (Prediction, error) {
	var sum float64
	for _, c := range competitors {
		s, err := p.Solo(c)
		if err != nil {
			return Prediction{}, err
		}
		sum += s.L3RefsPerSec()
	}
	curve, err := p.Curve(target)
	if err != nil {
		return Prediction{}, err
	}
	return Prediction{CompetingRefsPerSec: sum, Drop: curve.DropAt(sum)}, nil
}

// PredictAt reads the target's curve at a known competition level — the
// paper's "prediction assuming perfect knowledge of the competition"
// (Figure 8(b)), where the competitors' actual co-run refs/sec replace
// the solo-run estimate.
func (p *Predictor) PredictAt(target apps.FlowType, competingRefsPerSec float64) (Prediction, error) {
	curve, err := p.Curve(target)
	if err != nil {
		return Prediction{}, err
	}
	return Prediction{CompetingRefsPerSec: competingRefsPerSec, Drop: curve.DropAt(competingRefsPerSec)}, nil
}

// mixKey canonicalises a multiset of flow types.
func mixKey(mix []apps.FlowType) string {
	s := make([]string, len(mix))
	for i, t := range mix {
		s[i] = string(t)
	}
	sort.Strings(s)
	return strings.Join(s, ",")
}

// MeasureMix co-runs the given flows on one socket (cores 0..n-1, data
// local) and returns their window statistics, memoised by multiset. The
// slice is ordered by the sorted multiset, not the input order.
func (p *Predictor) MeasureMix(mix []apps.FlowType) ([]hw.FlowStats, []apps.FlowType, error) {
	if len(mix) == 0 || len(mix) > p.Cfg.CoresPerSocket {
		return nil, nil, fmt.Errorf("core: mix of %d flows does not fit a %d-core socket",
			len(mix), p.Cfg.CoresPerSocket)
	}
	sorted := append([]apps.FlowType(nil), mix...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	stats, err := p.mixes.Do(mixKey(sorted), func() ([]hw.FlowStats, error) {
		flows := make([]FlowSpec, len(sorted))
		for i, t := range sorted {
			flows[i] = FlowSpec{Type: t, Core: i, Domain: 0, Seed: SeedFor(t, i)}
		}
		return p.measure(flows)
	})
	return stats, sorted, err
}

// MeasuredDrops returns each flow's measured contention-induced drop in
// the given mix, ordered like MeasureMix's sorted result.
func (p *Predictor) MeasuredDrops(mix []apps.FlowType) ([]float64, []apps.FlowType, error) {
	stats, sorted, err := p.MeasureMix(mix)
	if err != nil {
		return nil, nil, err
	}
	drops := make([]float64, len(sorted))
	for i, t := range sorted {
		solo, err := p.Solo(t)
		if err != nil {
			return nil, nil, err
		}
		drops[i] = hw.PerformanceDrop(solo, stats[i])
	}
	return drops, sorted, nil
}

// PredictMix predicts every flow's drop in a mix from solo profiles only.
// Results are ordered like MeasureMix's sorted order so measured and
// predicted values align index-wise.
func (p *Predictor) PredictMix(mix []apps.FlowType) ([]Prediction, []apps.FlowType, error) {
	sorted := append([]apps.FlowType(nil), mix...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	preds := make([]Prediction, len(sorted))
	for i, t := range sorted {
		competitors := make([]apps.FlowType, 0, len(sorted)-1)
		competitors = append(competitors, sorted[:i]...)
		competitors = append(competitors, sorted[i+1:]...)
		pr, err := p.Predict(t, competitors)
		if err != nil {
			return nil, nil, err
		}
		preds[i] = pr
	}
	return preds, sorted, nil
}
