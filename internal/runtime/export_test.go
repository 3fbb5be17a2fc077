package runtime

import "pktpredict/internal/apps"

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

// SetRetention shrinks what the runtime retains — n control samples, n
// residuals per app — so eviction tests need not run
// DefaultStatsRetention windows. Call before Run.
func (r *Runtime) SetRetention(n int) {
	r.stats.samples.max = n
	r.residuals.max = n * len(r.disp.apps)
}

// CheckGolden is checkGolden, for the external test package.
var CheckGolden = checkGolden
