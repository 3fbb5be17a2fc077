// Command vetdp machine-checks the dataplane's hot-path invariants: the
// accounting disciplines the simulator's predictions depend on but the
// compiler cannot see. It bundles two analyzers — hotpathalloc and
// elemstamp — and reports any //dataplane: directive it does not know;
// see internal/analysis and docs/static-analysis.md.
//
// It is a `go vet` unit checker:
//
//	go vet -vettool=$(which vetdp) ./...
//
// cmd/go hands vetdp one package at a time with export data for its
// imports, and caches clean results keyed on the tool's -V=full
// identity. Every analyzer always runs. Exit status: 0 clean, 1
// operational error, 2 diagnostics reported.
package main

import (
	"crypto/sha256"
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
		// cmd/go validates the vet flags the user passed against this
		// schema; vetdp takes none.
		fmt.Println("[]")
		return 0
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return analysis.RunUnitchecker(analysis.All(), rest[0], os.Stderr)
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
