package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time copy of every registered series, in
// registration order — the unit both exposition formats render. Taking
// one only reads atomics, so it is safe while workers are mid-quantum.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one metric family's snapshot.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help"`
	Kind   Kind             `json:"kind"`
	Labels []string         `json:"labels,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one label combination's snapshot: Value carries a
// counter's count or a gauge's level.
type SeriesSnapshot struct {
	LabelValues []string `json:"label_values,omitempty"`
	Value       float64  `json:"value"`
}

// Snapshot copies every series' current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	var snap Snapshot
	for _, f := range fams {
		f.mu.Lock()
		series := append([]*series(nil), f.series...)
		f.mu.Unlock()
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind, Labels: f.labelNames}
		for _, s := range series {
			ss := SeriesSnapshot{LabelValues: s.labelValues}
			switch f.kind {
			case KindCounter:
				ss.Value = float64(s.counter.Value())
			case KindGauge:
				ss.Value = s.gauge.Value()
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, one sample line per
// series.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range s.Families {
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, ss := range f.Series {
			fmt.Fprintf(&b, "%s%s %s\n", f.Name, labelSet(f.Labels, ss.LabelValues), formatFloat(ss.Value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders the snapshot as indented JSON (the machine-readable
// twin of the Prometheus page).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// labelSet renders {k="v",...} from parallel name/value slices; it
// renders nothing when there are no labels.
func labelSet(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(s)
}

func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

// formatFloat renders a sample value the way Prometheus clients do:
// integers without an exponent, NaN/Inf spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatFloat(v, 'f', -1, 64)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}
