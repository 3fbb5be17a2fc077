package exp

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"pktpredict/internal/apps"
)

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// mrefs formats refs/sec in millions.
func mrefs(f float64) string { return fmt.Sprintf("%.1fM", f/1e6) }

// fixed formats a number with prec decimals.
func fixed(prec int) func(float64) string {
	return func(f float64) string { return strconv.FormatFloat(f, 'f', prec, 64) }
}

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
