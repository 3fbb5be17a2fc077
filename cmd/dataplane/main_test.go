package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/runtime"
)

// stackTrace is what a panic leaves on stderr; no command line may end
// in one, however bad.
var stackTrace = regexp.MustCompile(`panic:|goroutine `)

// row is one command line and what dataplane must answer: the exit
// status, and a regular expression for each thing stdout and stderr
// must hold.
type row struct {
	name           string
	args           []string
	code           int
	stdout, stderr []string
}

// check runs the row and reports every way the answer differs.
func (r row) check(t *testing.T) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(r.args, &stdout, &stderr)
	if code != r.code {
		t.Errorf("%v: exit %d, want %d", r.args, code, r.code)
	}
	for _, out := range []struct {
		name, text string
		want       []string
	}{{"stdout", stdout.String(), r.stdout}, {"stderr", stderr.String(), r.stderr}} {
		for _, re := range out.want {
			if !regexp.MustCompile(re).MatchString(out.text) {
				t.Errorf("%v: %s lacks %q", r.args, out.name, re)
			}
		}
	}
	if stackTrace.MatchString(stderr.String()) {
		t.Errorf("%v: Go stack trace on stderr", r.args)
	}
	if t.Failed() {
		t.Logf("stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
}

// probe writes text to a scenario file and returns its path.
func probe(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "probe.click")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCommandLine is dataplane's command-line contract, row by row.
func TestCommandLine(t *testing.T) {
	notDefined := []string{"flag provided but not defined"}
	element := func(elem string) []string {
		text := "s :: Scenario(NAME probe);\ngraph G { src :: FromDevice; src -> " + elem + " -> ToDevice; }\ng :: Flow(GRAPH G);\n"
		return []string{"-noprofile", "-config", probe(t, text), "-duration", "0.002"}
	}
	// graph's file opens with three lines, so the body's first line is
	// the file's fourth.
	graph := func(faultLine int, body ...string) []string {
		text := fmt.Sprintf("s :: Scenario(NAME probe);\n// the fault below sits on line %d of this file\ngraph G {\n", faultLine)
		for _, line := range body {
			text += "    " + line + "\n"
		}
		text += "}\ng :: Flow(GRAPH G);\n"
		return []string{"-noprofile", "-config", probe(t, text), "-duration", "0.002"}
	}
	for _, r := range []row{
		// Element arguments are rows of the class's key table: a table
		// size that used to panic on a build goroutine and a misspelled
		// key that used to run on the default both name class and key.
		{name: "negative table size", args: element("NetFlow(ENTRIES -5)"), code: 1,
			stderr: []string{`NetFlow: .*ENTRIES`}},
		{name: "unknown element key", args: element("RadixIPLookup(ROUTE 100)"), code: 1,
			stderr: []string{`RadixIPLookup: .*ROUTE`}},
		// A graph is checked where the file is loaded: a cycle and a
		// stage cut naming a missing element name the graph and the
		// line of the file the fault is on, not a line counted from the
		// block's brace.
		{name: "cycle", args: graph(5, "src :: FromDevice;", "a :: Counter;", "b :: Counter;", "src -> a;", "a -> b;", "b -> a;"), code: 1,
			stderr: []string{`graph G: .*cycle through "a".*\(line 5\)`}},
		{name: "stage names a missing element", args: graph(6, "src :: FromDevice;", "src -> Counter -> ToDevice;", "stage 1: nope;"), code: 1,
			stderr: []string{`graph G: .*unknown element "nope".*\(line 6\)`}},
		// -telemetry and -residuals both read the run's control windows
		// through Config.OnWindow. Without profiles the residual series
		// is empty, so this row profiles.
		{name: "window stream", args: []string{"-config", "../../examples/scenarios/nat_chain_staged.click", "-telemetry", "-residuals", "-duration", "0.002"},
			stdout: []string{`(?m)^telemetry samples:\n  t=`, `(?m)^prediction-residual series:$`}},
		// A run's duration is checked, not clamped: -duration -1 used to
		// print a one-quantum report and exit 0.
		{name: "negative duration", args: []string{"-noprofile", "-scenario", "nat_chain", "-duration", "-1"}, code: 1,
			stderr: []string{"duration"}},
		// Retired flags are unknown to flag: -packets went with the
		// second stop rule, -quantum to the .sweep grid's QUANTUM key,
		// and -trace-out alone traces one packet in 64.
		{name: "retired -packets", args: []string{"-packets", "10"}, code: 2, stderr: notDefined},
		{name: "retired -quantum", args: []string{"-quantum", "1000"}, code: 2, stderr: notDefined},
		{name: "retired -trace-sample", args: []string{"-trace-sample", "64"}, code: 2, stderr: notDefined},
		// A positional argument used to end flag parsing silently, and
		// the flags after it were ignored.
		{name: "stray argument", args: []string{"-noprofile", "-scenario", "nat_chain", "stray", "-duration", "1"}, code: 2,
			stderr: []string{`dataplane: unexpected argument "stray"`}},
		{name: "help", args: []string{"-h"}, stderr: []string{`Usage of dataplane:`, `-duration`}},
	} {
		t.Run(r.name, r.check)
	}
}

// TestChainTraceExport: -trace-out writes the sampled spans through the
// staged service chains as Chrome trace-event JSON with exec spans.
func TestChainTraceExport(t *testing.T) {
	for _, name := range []string{"nat_chain_staged", "ids_chain_staged"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.json")
			row{args: []string{"-noprofile", "-duration", "0.01", "-config", "../../examples/scenarios/" + name + ".click", "-trace-out", path},
				stderr: []string{`wrote [1-9][0-9]* trace spans`}}.check(t)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Ph string `json:"ph"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &trace); err != nil {
				t.Fatalf("%s is not trace-event JSON: %v", path, err)
			}
			spans := 0
			for _, ev := range trace.TraceEvents {
				if ev.Ph == "X" {
					spans++
				}
			}
			if spans == 0 {
				t.Errorf("no exec spans among %d events", len(trace.TraceEvents))
			}
		})
	}
}

// TestLiveMetricsScrape scrapes -metrics-addr while the run holds it
// open. stderr is a pipe that this test reads no further than the
// "serving metrics" line until it has scraped: the run's next stderr
// write blocks until then, and it comes before the server closes.
func TestLiveMetricsScrape(t *testing.T) {
	pr, pw := io.Pipe()
	var stdout bytes.Buffer
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-noprofile", "-duration", "0.01", "-config", "../../examples/scenarios/mixed.click", "-metrics-addr", "127.0.0.1:0"}, &stdout, pw)
		pw.Close()
	}()
	defer io.Copy(io.Discard, pr) // unblock the run if the test fails early
	lines := bufio.NewScanner(pr)
	var stderr strings.Builder
	url := ""
	for url == "" && lines.Scan() {
		fmt.Fprintln(&stderr, lines.Text())
		url, _ = strings.CutPrefix(lines.Text(), "dataplane: serving metrics on ")
	}
	if url == "" {
		t.Fatalf("no 'serving metrics on' line on stderr:\n%s", stderr.String())
	}
	get := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s, %v", url, resp.Status, err)
		}
		return string(body)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		if metrics := get(url); strings.Contains("\n"+metrics, "\ndataplane_worker_packets_total{") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never showed dataplane_worker_packets_total", url)
		}
	}
	if js := get(url + ".json"); !json.Valid([]byte(js)) {
		t.Errorf("%s.json is not JSON: %.200s", url, js)
	}
	for lines.Scan() {
		fmt.Fprintln(&stderr, lines.Text())
	}
	if c := <-code; c != 0 {
		t.Errorf("exit %d, want 0:\n%s", c, stderr.String())
	}
	if stackTrace.MatchString(stderr.String()) {
		t.Errorf("Go stack trace on stderr:\n%s", stderr.String())
	}
}

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
