package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter from many goroutines while a
// reader snapshots continuously: the final count must be exact and every
// intermediate snapshot monotonic (run under -race in CI).
func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "t", "shard").With("0")
	const writers, perWriter = 8, 10000

	stop := make(chan struct{})
	var snapErr error
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		var last float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := reg.Snapshot()
			v := s.Families[0].Series[0].Value
			if v < last {
				snapErr = &nonMonotonicErr{last, v}
				return
			}
			last = v
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
}

type nonMonotonicErr struct{ last, v float64 }

func (e *nonMonotonicErr) Error() string { return "snapshot went backwards" }

// TestGaugeConcurrent exercises gauge Set from concurrent writers with
// a concurrent snapshotter.
func TestGaugeConcurrent(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("test_gauge", "t").With()
	const writers, perWriter = 8, 5000

	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Snapshot()
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				g.Set(float64(i*perWriter + j))
			}
		}()
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	// The gauge holds some writer's last Set, never a torn mix of two.
	if got := g.Value(); got != math.Trunc(got) || int(got)%perWriter != perWriter-1 || got >= writers*perWriter {
		t.Fatalf("gauge = %g, not any writer's last value", got)
	}
}

// TestVecReuse checks that With returns the same handle for the same
// labels and that re-registration returns the existing family.
func TestVecReuse(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "t", "w").With("1")
	b := reg.Counter("x_total", "t", "w").With("1")
	if a != b {
		t.Fatal("same labels gave different counter handles")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatalf("shared handle reads %d, want 3", b.Value())
	}
}

// TestRegistrationRules: names and label names are lower-case
// Prometheus identifiers, and a name ends in _total exactly when it is a
// counter's. A registration that breaks a rule panics at setup time.
func TestRegistrationRules(t *testing.T) {
	counter := func(name string, labels ...string) func(*Registry) {
		return func(r *Registry) { r.Counter(name, "h", labels...) }
	}
	gauge := func(name string) func(*Registry) { return func(r *Registry) { r.Gauge(name, "h") } }
	for _, tc := range []struct {
		name   string
		reg    func(*Registry)
		panics bool
	}{
		{"counter drops_total", counter("drops_total", "worker"), false},
		{"gauge queue_depth", gauge("queue_depth"), false},
		{"counter foo", counter("foo"), true},
		{"gauge busy_total", gauge("busy_total"), true},
		{"name Bad_total", counter("Bad_total"), true},
		{"label Bad-Label", counter("ok_total", "Bad-Label"), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); (r != nil) != tc.panics {
					t.Fatalf("panicked: %v, want a panic: %v", r, tc.panics)
				}
			}()
			tc.reg(NewRegistry())
		})
	}
}

// TestPrometheusExposition locks the text format: HELP/TYPE headers,
// label rendering and escaping.
func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dp_packets_total", "packets processed", "worker", "app").With("0", `na"t`).Add(7)
	reg.Gauge("dp_ring_fill", "ring occupancy fraction").With().Set(0.5)

	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP dp_packets_total packets processed\n",
		"# TYPE dp_packets_total counter\n",
		`dp_packets_total{worker="0",app="na\"t"} 7` + "\n",
		"# TYPE dp_ring_fill gauge\n",
		"dp_ring_fill 0.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// The zero-allocation acceptance bar for these updates lives in the
// consolidated root-level gate (go test -run TestHotPathAllocs); the
// benchmarks below report ns/op for the atomics.

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("a_total", "t", "w").With("0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("b", "t", "w").With("0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}
