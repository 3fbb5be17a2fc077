// Command vetdp machine-checks the dataplane's hot-path invariants: the
// accounting and concurrency disciplines the simulator's predictions
// depend on but the compiler cannot see. It bundles four analyzers —
// hotpathalloc, elemstamp, singlewriter, metriclint; see
// internal/analysis and docs/static-analysis.md.
//
// It is a `go vet` unit checker:
//
//	go vet -vettool=$(which vetdp) ./...
//
// cmd/go hands vetdp one package at a time with export data and fact
// files for its dependencies, and caches clean results keyed on the
// tool's -V=full identity.
//
// Each analyzer can be disabled with -<name>=false. Exit status: 0
// clean, 1 operational error, 2 diagnostics reported.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pktpredict/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("vetdp", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	versionFlag := fs.String("V", "", "print version and exit (cmd/go protocol: -V=full)")
	flagsFlag := fs.Bool("flags", false, "print the tool's flag schema as JSON and exit (cmd/go protocol)")
	enabled := map[string]*bool{}
	for _, a := range analysis.All() {
		enabled[a.Name] = fs.Bool(a.Name, true, "run the "+a.Name+" analyzer")
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	switch {
	case *versionFlag != "":
		// cmd/go requires "<name> version <id>" with a non-"devel" id; the
		// id keys the vet action cache, so derive it from the executable.
		fmt.Printf("vetdp version %s\n", buildID())
		return 0
	case *flagsFlag:
		return printFlagSchema()
	}

	var active []*analysis.Analyzer
	for _, a := range analysis.All() {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return analysis.RunUnitchecker(active, rest[0], os.Stderr)
	}
	fmt.Fprintln(os.Stderr, "vetdp: run it through cmd/go: go vet -vettool=$(which vetdp) ./...")
	return 1
}

// buildID hashes the running executable so the vet action cache is
// invalidated whenever the tool is rebuilt.
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return "v0-unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "v0-unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "v0-unknown"
	}
	return fmt.Sprintf("v0-%x", h.Sum(nil)[:12])
}

// printFlagSchema answers cmd/go's -flags probe, which it uses to
// validate the vet flags the user passed on the go vet command line.
func printFlagSchema() int {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var out []jsonFlag
	for _, a := range analysis.All() {
		out = append(out, jsonFlag{Name: a.Name, Bool: true, Usage: "run the " + a.Name + " analyzer"})
	}
	data, err := json.MarshalIndent(out, "", "\t")
	if err != nil {
		fmt.Fprintf(os.Stderr, "vetdp: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}
