package exp

import (
	"fmt"
	"slices"
	"strings"

	"pktpredict/internal/apps"
)

// csvBuilder accumulates comma-separated rows.
type csvBuilder struct {
	b strings.Builder
}

func (c *csvBuilder) row(fields ...interface{}) {
	for i, f := range fields {
		if i > 0 {
			c.b.WriteByte(',')
		}
		switch v := f.(type) {
		case float64:
			fmt.Fprintf(&c.b, "%.6g", v)
		default:
			fmt.Fprintf(&c.b, "%v", v)
		}
	}
	c.b.WriteByte('\n')
}

func (c *csvBuilder) String() string { return c.b.String() }

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// mrefs formats refs/sec in millions.
func mrefs(f float64) string { return fmt.Sprintf("%.1fM", f/1e6) }

// countLabel names a mix by its type counts in first-appearance order:
// "2 MON, 2 VPN, 1 FW, 1 RE".
func countLabel(mix []apps.FlowType) string {
	count := map[apps.FlowType]int{}
	for _, t := range mix {
		count[t]++
	}
	var parts []string
	for i, t := range mix {
		if slices.Index(mix, t) == i {
			parts = append(parts, fmt.Sprintf("%d %s", count[t], t))
		}
	}
	return strings.Join(parts, ", ")
}

// matrix renders one cell per (target, competitor) pair of realistic
// types, targets as rows.
func matrix(b *strings.Builder, cell func(target, comp apps.FlowType) string) {
	fmt.Fprintf(b, "%-8s", "")
	for _, comp := range apps.RealisticTypes {
		fmt.Fprintf(b, "%8s", comp)
	}
	b.WriteByte('\n')
	for _, target := range apps.RealisticTypes {
		fmt.Fprintf(b, "%-8s", target)
		for _, comp := range apps.RealisticTypes {
			fmt.Fprintf(b, "%8s", cell(target, comp))
		}
		b.WriteByte('\n')
	}
}
