package main

import (
	"bytes"
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/runtime"
)

// TestPrintProfilesIsDeterministic: the profile summary used to range
// over the profile map, so the same run printed its types in a different
// order each time. It must render identically every time, in the order
// of the type list.
func TestPrintProfilesIsDeterministic(t *testing.T) {
	types := []apps.FlowType{"FW", "IP", "MON", "RE", "SYN", "VPN", "ids", "natfw"}
	profiles := map[apps.FlowType]runtime.FlowProfile{}
	for i, typ := range types {
		profiles[typ] = runtime.FlowProfile{
			SoloPPS: float64(i+1) * 1e6, SoloRefsPerSec: float64(i+1) * 3e6,
			Curve:    core.Curve{Target: typ, Points: []core.CurvePoint{{}, {CompetingRefsPerSec: 5e7, Drop: 0.1}}},
			Elements: map[string]runtime.ElemBaseline{"e": {}},
		}
	}
	var first bytes.Buffer
	printProfiles(&first, types, profiles)
	lines := strings.Split(strings.TrimSuffix(first.String(), "\n"), "\n")
	if len(lines) != len(types) {
		t.Fatalf("%d lines for %d types:\n%s", len(lines), len(types), first.String())
	}
	for i, typ := range types {
		if !strings.HasPrefix(strings.TrimSpace(lines[i]), string(typ)+" ") {
			t.Errorf("line %d is %q, want type %s there", i, lines[i], typ)
		}
	}
	for range 20 { // eight keys: a map-ordered render repeats with probability 1/8!
		var again bytes.Buffer
		printProfiles(&again, types, profiles)
		if again.String() != first.String() {
			t.Fatalf("two renders of the same profiles differ:\n%s\n%s", first.String(), again.String())
		}
	}
}
