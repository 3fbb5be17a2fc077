package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the harness made into a layer's public API.
// Start and End are nanoseconds since the pass began; Parent indexes the
// enclosing span (-1 for the root); Rep is the workload repetition the
// call belonged to (-1 outside the timed reps).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
}

// tracer keeps the spans of one pass in memory. It is driven from the
// harness goroutine only: spans nest strictly, so a layer's self time is
// its span minus the spans it directly encloses, and all self times add
// up to the root span.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int // innermost open span, -1 when none
	rep   int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), cur: -1, rep: -1}
}

// timer measures one call. With tracing off it is just a stopwatch, so
// the traced and untraced passes execute the same harness code and the
// difference between them is the cost of recording spans.
type timer struct {
	tr *tracer
	id int
	t0 time.Time
}

// begin opens a span (when tracing) and starts the stopwatch.
func (tr *tracer) begin(name string) timer {
	if tr == nil {
		return timer{id: -1, t0: time.Now()}
	}
	id := len(tr.spans)
	now := time.Now()
	tr.spans = append(tr.spans, span{Name: name, Start: now.Sub(tr.t0).Nanoseconds(), Parent: tr.cur, Rep: tr.rep})
	tr.cur = id
	return timer{tr: tr, id: id, t0: now}
}

// end closes the span and returns the elapsed time.
func (t timer) end() time.Duration {
	now := time.Now()
	if t.tr != nil {
		sp := &t.tr.spans[t.id]
		sp.End = now.Sub(t.tr.t0).Nanoseconds()
		t.tr.cur = sp.Parent
	}
	return now.Sub(t.t0)
}

// selfTimes returns every span's duration minus its direct children's.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
