// Package obs is the dataplane's unified observability layer: a metrics
// registry of counters and gauges whose updates are single atomic
// operations (zero allocations, so the runtime's control barrier
// publishes a whole window without allocating), snapshot-on-read
// exposition in Prometheus text and JSON, packet-sampled chain tracing
// exported as Chrome trace-event JSON, and a prediction-residual
// diagnoser.
//
// The paper's method is built on exactly this telemetry: per-core
// hardware counters (cycles, L3 refs/hits, remote references) feed the
// offline profiles and the online drop prediction, and its Section 5
// diagnosis story reads the same counters to name the aggressor when an
// SLA is violated. This package turns that in-process telemetry into an
// operator surface — a live scrape endpoint, a residual time series with
// an attributed cause (L3 contention, ring backpressure, or remote NUMA
// references), and per-stage packet traces whose virtual-time gaps are
// the charged hand-off costs.
//
// Concurrency model: metric handles (Counter, Gauge) are safe for
// concurrent use; every update is a plain atomic, so the runtime, which
// writes every series from its control barrier, never blocks a scrape,
// and multi-writer use is still correct. Vec lookup (With) locks and may
// allocate — resolve handles at setup time, not per update. Snapshots
// and exposition only read atomics and can run while workers are
// mid-quantum, including under the race detector.
package obs

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
)

// Kind is a metric family's type.
type Kind string

// Metric kinds, matching the Prometheus exposition TYPE names.
const (
	KindCounter Kind = "counter"
	KindGauge   Kind = "gauge"
)

var nameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// Registry holds metric families. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// family is one named metric family: a kind, label names, and the series
// created so far.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string

	mu     sync.Mutex
	series []*series
	byKey  map[string]*series
}

// series is one label combination's storage. Exactly one of the typed
// handles is non-nil, matching the family kind.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// register creates or fetches a family, validating that re-registration
// agrees on kind and label names (a programming error otherwise). Names
// and label names are lower-case Prometheus identifiers, and a name ends
// in _total exactly when it is a counter's, which rate() queries rely on.
func (r *Registry) register(name, help string, kind Kind, labelNames []string) *family {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if strings.HasSuffix(name, "_total") != (kind == KindCounter) {
		panic(fmt.Sprintf("obs: %s %s: a name ends in _total if and only if it names a counter", kind, name))
	}
	for _, l := range labelNames {
		if !nameRe.MatchString(l) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || !sameStrings(f.labelNames, labelNames) {
			panic(fmt.Sprintf("obs: metric %s re-registered with different kind or labels", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labelNames: append([]string(nil), labelNames...),
		byKey:      map[string]*series{},
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seriesFor creates or fetches the series for one label-value tuple.
func (f *family) seriesFor(values []string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %s takes %d label values, got %d", f.name, len(f.labelNames), len(values)))
	}
	key := ""
	for _, v := range values {
		key += v + "\x00"
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		s.counter = &Counter{}
	case KindGauge:
		s.gauge = &Gauge{}
	}
	f.series = append(f.series, s)
	f.byKey[key] = s
	return s
}

// Counter registers (or fetches) a counter family and returns its vec.
func (r *Registry) Counter(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(name, help, KindCounter, labelNames)}
}

// Gauge registers (or fetches) a gauge family and returns its vec.
func (r *Registry) Gauge(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, KindGauge, labelNames)}
}

// CounterVec resolves label tuples to Counter handles.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use. Setup path: locks and may allocate.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.seriesFor(labelValues).counter
}

// GaugeVec resolves label tuples to Gauge handles.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values, creating it on
// first use. Setup path: locks and may allocate.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.seriesFor(labelValues).gauge
}
