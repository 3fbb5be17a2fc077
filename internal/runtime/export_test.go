package runtime

import (
	"pktpredict/internal/apps"
	"pktpredict/internal/obs"
)

// FlowLayout is what of a built flow the build order could move: its id,
// the worker each stage is bound to, and where its state sits in
// simulated memory. The external build tests compare it across runs.
type FlowLayout struct {
	ID        int
	App       string
	Replica   int
	Workers   []int // by stage
	StateHome int
	State     []apps.StateBinding
}

// Layout returns every flow's layout, in flow order.
func (r *Runtime) Layout() []FlowLayout {
	var out []FlowLayout
	for _, f := range r.flows {
		l := FlowLayout{ID: f.id, App: f.app.spec.Name, Replica: f.replica, StateHome: f.stateHome, State: f.state}
		for _, u := range f.stages {
			l.Workers = append(l.Workers, u.workerIdx)
		}
		out = append(out, l)
	}
	return out
}

// Windows is what a run handed Config.OnWindow: every control sample and
// the residual series flattened, oldest first.
type Windows struct {
	Samples   []ControlSample
	Residuals []obs.Residual // never nil, so an empty series renders []
}

// Latest returns the last sample, the zero value before the first window.
func (w *Windows) Latest() ControlSample {
	if len(w.Samples) == 0 {
		return ControlSample{}
	}
	return w.Samples[len(w.Samples)-1]
}

// CaptureWindows installs an OnWindow collector on cfg, after any hook
// already set, and returns what it collects.
func CaptureWindows(cfg *Config) *Windows {
	w := &Windows{Residuals: []obs.Residual{}}
	hook := cfg.OnWindow
	cfg.OnWindow = func(cs ControlSample, res []obs.Residual) {
		if hook != nil {
			hook(cs, res)
		}
		w.Samples = append(w.Samples, cs)
		w.Residuals = append(w.Residuals, res...)
	}
	return w
}

// CheckGolden is checkGolden, for the external test package.
var CheckGolden = checkGolden

// InLine switches r to the barrier's in-line driver (see the package doc):
// its sockets run one after another on the calling goroutine, and the run
// is a pure function of its configuration.
func (r *Runtime) InLine() { r.inline = true }

// IntGolden is intGolden, for the external test package.
var IntGolden = intGolden

// ThrashStateConfig is thrashStateConfig, for the external test package.
var ThrashStateConfig = thrashStateConfig

// ForceEmitters grants every socket group that can have an emitter one
// every quantum, whatever the CPU budget; delay, when non-nil, runs
// before each claim, so the socket goroutine steals what it waits on.
func (r *Runtime) ForceEmitters(delay func()) { r.forceEmit, r.emitDelay = true, delay }

// AtBarrier calls f after every quantum, all sockets parked, with the
// number of workers whose emitter handshake is not idle.
func (r *Runtime) AtBarrier(f func(outstanding int)) {
	r.atBarrier = func() {
		n := 0
		for _, w := range r.workers {
			if w.ahead != nil && w.ahead.state.Load() != aheadIdle {
				n++
			}
		}
		f(n)
	}
}

// EmitterTallies is one socket's emitter tallies over the whole run.
type EmitterTallies struct {
	Socket                int
	Quanta, Steals, Waits uint64
}

// Emitters returns the tallies of every socket group that can have an
// emitter.
func (r *Runtime) Emitters() []EmitterTallies {
	var out []EmitterTallies
	for _, g := range r.groups {
		if g.canEmit() {
			out = append(out, EmitterTallies{g.socket, g.emitQuanta, g.steals, g.waits})
		}
	}
	return out
}
