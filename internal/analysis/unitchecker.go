package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
)

// This file implements the `go vet -vettool` unit-checker protocol, the
// same contract golang.org/x/tools/go/analysis/unitchecker fulfils,
// reimplemented on the standard library. cmd/go drives the tool once
// per package in the build graph:
//
//   - `vetdp -V=full` prints an identity line cmd/go folds into its
//     action cache key,
//   - `vetdp -flags` prints the tool's flag schema as JSON,
//   - `vetdp <objdir>/vet.cfg` analyzes one package described by a JSON
//     config: sources, export data for every import, and "vetx" fact
//     files produced by earlier runs over the dependencies.
//
// Dependency-only packages (VetxOnly, which includes the whole standard
// library) are analyzed silently just to harvest facts; diagnostics are
// printed only for the packages the user named, and a nonzero exit
// fails the `go vet` invocation.

// VetConfig is the part of cmd/go's vet configuration JSON the checker
// reads; decoding skips the other keys.
type VetConfig struct {
	ImportPath  string            `json:"ImportPath"`
	GoFiles     []string          `json:"GoFiles"`
	GoVersion   string            `json:"GoVersion"`
	ImportMap   map[string]string `json:"ImportMap"`
	PackageFile map[string]string `json:"PackageFile"`
	PackageVetx map[string]string `json:"PackageVetx"`
	VetxOnly    bool              `json:"VetxOnly"`
	VetxOutput  string            `json:"VetxOutput"`

	SucceedOnTypecheckFailure bool `json:"SucceedOnTypecheckFailure"`
}

// vetxFile is the fact payload one run leaves for dependent packages:
// analyzer name → exported fact strings. Facts inherited from this
// package's own dependencies are folded in, so dependents see the
// transitive closure without walking it.
type vetxFile map[string][]string

// RunUnitchecker analyzes the single package described by cfgPath and
// returns the process exit code: 0 clean, 1 for operational errors,
// 2 when diagnostics were reported (the unitchecker convention).
func RunUnitchecker(analyzers []*Analyzer, cfgPath string, stderr io.Writer) int {
	cfg, err := readVetConfig(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "vetdp: %v\n", err)
		return 1
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return typecheckFailure(cfg, stderr, err)
		}
		files = append(files, f)
	}

	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", build.Default.GOARCH)}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return typecheckFailure(cfg, stderr, err)
	}

	depFacts := map[string][]string{}
	for _, vetxPath := range cfg.PackageVetx {
		data, err := os.ReadFile(vetxPath)
		if err != nil {
			continue // a dep analyzed by an older tool build; facts degrade soft
		}
		var vf vetxFile
		if err := json.Unmarshal(data, &vf); err != nil {
			continue
		}
		for name, facts := range vf {
			depFacts[name] = append(depFacts[name], facts...)
		}
	}
	for name := range depFacts {
		sort.Strings(depFacts[name])
	}

	out := vetxFile{}
	exit := 0
	for _, a := range analyzers {
		a := a
		exported := append([]string(nil), depFacts[a.Name]...)
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        tpkg,
			Info:       info,
			Sizes:      conf.Sizes,
			DepFacts:   func() []string { return depFacts[a.Name] },
			ExportFact: func(fact string) { exported = append(exported, fact) },
			Report: func(d Diagnostic) {
				if cfg.VetxOnly {
					return
				}
				fmt.Fprintf(stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
				exit = 2
			},
		}
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(stderr, "vetdp: %s on %s: %v\n", a.Name, cfg.ImportPath, err)
			return 1
		}
		if len(exported) > 0 {
			sort.Strings(exported)
			out[a.Name] = dedupe(exported)
		}
	}

	if cfg.VetxOutput != "" {
		if err := writeVetx(cfg.VetxOutput, out); err != nil {
			fmt.Fprintf(stderr, "vetdp: %v\n", err)
			return 1
		}
	}
	return exit
}

func readVetConfig(path string) (*VetConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := new(VetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	return cfg, nil
}

// typecheckFailure handles a package we could not parse or type-check.
// For dependency-only packages (assembly-heavy runtime internals, cgo)
// analysis is best-effort fact harvesting, so failure degrades to "no
// facts" rather than breaking the whole `go vet` run; for the packages
// under analysis it is fatal unless cmd/go asked otherwise.
func typecheckFailure(cfg *VetConfig, stderr io.Writer, err error) int {
	if cfg.SucceedOnTypecheckFailure || cfg.VetxOnly {
		if cfg.VetxOutput != "" {
			if werr := writeVetx(cfg.VetxOutput, vetxFile{}); werr != nil {
				fmt.Fprintf(stderr, "vetdp: %v\n", werr)
				return 1
			}
		}
		return 0
	}
	fmt.Fprintf(stderr, "vetdp: %s: %v\n", cfg.ImportPath, err)
	return 1
}

func writeVetx(path string, vf vetxFile) error {
	data, err := json.Marshal(vf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

func dedupe(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}
