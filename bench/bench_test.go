package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// benchmarkDoc is BENCHMARK.json as the driver reads it.
type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

// The smoke run is shared: every workload, both passes, at a size that
// finishes in a few seconds.
var (
	smokeOnce   sync.Once
	smokeDoc    resultsFile
	smokeStdout string
	smokeErr    string
	smokeCode   int
)

func smokeRun(t *testing.T) resultsFile {
	t.Helper()
	smokeOnce.Do(func() {
		out := filepath.Join(os.TempDir(), "pktpredict-bench-smoke-results.json")
		defer os.Remove(out)
		var stdout, stderr bytes.Buffer
		smokeCode = run([]string{"-smoke", "-seconds", "0", "-dir", ".", "-out", out}, &stdout, &stderr)
		smokeStdout, smokeErr = stdout.String(), stderr.String()
		if data, err := os.ReadFile(out); err == nil {
			_ = json.Unmarshal(data, &smokeDoc)
		}
	})
	if smokeCode != 0 {
		t.Fatalf("smoke run exited %d\nstderr: %s\nstdout: %s", smokeCode, smokeErr, smokeStdout)
	}
	return smokeDoc
}

// TestBenchmarkFileMatchesTables pins BENCHMARK.json to the tables in
// spec.go it is generated from.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	doc := loadBenchmarkDoc(t)
	var want benchmarkDoc
	if err := json.Unmarshal([]byte(benchmarkFile(doc.RunSeconds)), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, want) {
		t.Fatalf("BENCHMARK.json differs from the tables in spec.go; regenerate it with `go run . -benchmark-json -seconds %d`", doc.RunSeconds)
	}
}

// TestEveryDeclaredMetricIsEmitted runs every workload at the smoke size
// and checks each name BENCHMARK.json declares comes out once per
// workload, under its unit, finite and well-formed, with nothing extra;
// and that the copied scenario files parse, run and conserve packets
// (fail_share is 0).
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	doc := loadBenchmarkDoc(t)
	res := smokeRun(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(res.Workloads) != len(doc.Workloads) {
		t.Errorf("ran %d workloads, BENCHMARK.json lists %d", len(res.Workloads), len(doc.Workloads))
	}
	for _, w := range doc.Workloads {
		wr := res.Workloads[w.Name]
		if wr == nil {
			t.Errorf("workload %s: not run", w.Name)
			continue
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("workload %s: correct=%v failed %d of %d: %v", w.Name, wr.Correct, wr.Failed, wr.Attempted, wr.Errors)
		}
		check := func(kind, name, unit string, got map[string]metricResult) {
			m, ok := got[name]
			switch {
			case !nameRE.MatchString(name):
				t.Errorf("%s metric %q: malformed name", kind, name)
			case !ok:
				t.Errorf("workload %s: %s metric %s not emitted", w.Name, kind, name)
			case m.Unit != unit:
				t.Errorf("workload %s: %s has unit %q, declared %q", w.Name, name, m.Unit, unit)
			case math.IsNaN(m.Median) || math.IsInf(m.Median, 0):
				t.Errorf("workload %s: %s = %v", w.Name, name, m.Median)
			}
			// The human-readable report prints each metric once per pass.
			if n := strings.Count(smokeStdout, "  "+name+" "); n != len(doc.Workloads) {
				t.Errorf("metric %s printed %d times over %d workloads", name, n, len(doc.Workloads))
			}
		}
		for _, m := range doc.EndToEnd {
			check("end-to-end", m.Name, m.Unit, wr.EndToEnd)
			if v := wr.EndToEnd[m.Name].Median; v == 0 {
				t.Errorf("workload %s: end-to-end metric %s is 0, which has no relative bound", w.Name, m.Name)
			}
		}
		for _, m := range doc.PerLayer {
			check("per-layer", m.Name, m.Unit, wr.PerLayer)
		}
		if len(wr.EndToEnd) != len(doc.EndToEnd) || len(wr.PerLayer) != len(doc.PerLayer) {
			t.Errorf("workload %s: emitted %d+%d metrics, declared %d+%d", w.Name,
				len(wr.EndToEnd), len(wr.PerLayer), len(doc.EndToEnd), len(doc.PerLayer))
		}
	}
	if len(res.Provenance.Files) == 0 || res.Provenance.GoVersion == "" {
		t.Errorf("provenance block incomplete: %+v", res.Provenance)
	}
}

// TestSpanTreeSelfTimes checks the traces the smoke run wrote: spans
// nest inside their parents and the self times add up to the root span.
func TestSpanTreeSelfTimes(t *testing.T) {
	smokeRun(t)
	for _, w := range workloads {
		data, err := os.ReadFile(filepath.Join("out", "trace_"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct{ Spans []span }
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		spans := doc.Spans
		if len(spans) < 10 || spans[0].Parent != -1 {
			t.Fatalf("%s: %d spans, root parent %d", w.Name, len(spans), spans[0].Parent)
		}
		for i, s := range spans[1:] {
			p := spans[s.Parent]
			if s.Parent < 0 || s.Parent > i || s.Start < p.Start || s.End > p.End || s.End < s.Start {
				t.Fatalf("%s: span %d %q [%d,%d] escapes parent %q [%d,%d]", w.Name, i+1, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		var total int64
		for _, self := range selfTimes(spans) {
			if self < 0 {
				t.Fatalf("%s: negative self time", w.Name)
			}
			total += self
		}
		if root := spans[0].End - spans[0].Start; total != root {
			t.Errorf("%s: self times sum to %d ns, root span is %d ns", w.Name, total, root)
		}
	}
}

// TestDriverLine runs the command the way the driver does and checks the
// last line of standard output is the result object, with the keys and
// the metric set the contract fixes for the pass.
func TestDriverLine(t *testing.T) {
	doc := loadBenchmarkDoc(t)
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		out := filepath.Join(t.TempDir(), "results.json")
		code := run([]string{"-smoke", "-dir", ".", "-out", out,
			"--workload", "runtime_chains", "--seed", "7", "--seconds", "0", "--trace", trace}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := line[key]; !ok {
				t.Errorf("result line lacks %q", key)
			}
		}
		var metrics map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		if trace == "0" {
			for _, m := range doc.EndToEnd {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range doc.PerLayer {
				want[m.Name] = m.Unit
			}
		}
		if len(line) != 4 || len(metrics) != len(want) {
			t.Errorf("trace %s: %d keys, %d metrics; want 4 keys, %d metrics", trace, len(line), len(metrics), len(want))
		}
		for name, unit := range want {
			if metrics[name].Unit != unit {
				t.Errorf("trace %s: metric %s unit %q, want %q", trace, name, metrics[name].Unit, unit)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if s := summarize([]float64{3, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("summary = %+v", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "rep_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "virt_mpps", Better: "higher", Bound: 0.02}
	tight := func(med float64) summary { return summary{N: 10, Q1: med * 0.995, Median: med, Q3: med * 1.005} }
	noisy := func(med float64) summary { return summary{N: 10, Q1: med * 0.9, Median: med, Q3: med * 1.1} }
	for _, c := range []struct {
		a, b summary
		d    metricDef
		want string
	}{
		{tight(1), tight(1.05), lower, "within"},
		{tight(1), tight(1.2), lower, "worse"},
		{tight(1), tight(0.9), lower, "better"},
		{noisy(1), tight(1.2), lower, "unresolved"},
		{tight(10), tight(9.5), higher, "worse"},
		{tight(10), tight(10.5), higher, "better"},
	} {
		if got := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}
