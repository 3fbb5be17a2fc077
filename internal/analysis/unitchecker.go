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
//     config: sources and export data for every import.
//
// The analyzers keep no cross-package facts, so a dependency-only package
// (VetxOnly, which includes the whole standard library) gets an empty
// "vetx" fact file and is neither parsed nor type-checked. Diagnostics are
// printed only for the packages the user named, and a nonzero exit fails
// the `go vet` invocation.

// VetConfig is the part of cmd/go's vet configuration JSON the checker
// reads; decoding skips the other keys.
type VetConfig struct {
	ImportPath  string            `json:"ImportPath"`
	GoFiles     []string          `json:"GoFiles"`
	GoVersion   string            `json:"GoVersion"`
	ImportMap   map[string]string `json:"ImportMap"`
	PackageFile map[string]string `json:"PackageFile"`
	VetxOnly    bool              `json:"VetxOnly"`
	VetxOutput  string            `json:"VetxOutput"`

	SucceedOnTypecheckFailure bool `json:"SucceedOnTypecheckFailure"`
}

// RunUnitchecker analyzes the single package described by cfgPath and
// returns the process exit code: 0 clean, 1 for operational errors,
// 2 when diagnostics were reported (the unitchecker convention).
func RunUnitchecker(analyzers []*Analyzer, cfgPath string, stderr io.Writer) int {
	cfg, err := readVetConfig(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "vetdp: %v\n", err)
		return 1
	}
	if cfg.VetxOnly {
		return writeVetx(cfg, stderr)
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

	exit := 0
	report := func(d Diagnostic) {
		fmt.Fprintf(stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
		exit = 2
	}
	checkDirectives(fset, files, report)
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: tpkg, Info: info, Report: report}
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(stderr, "vetdp: %s on %s: %v\n", a.Name, cfg.ImportPath, err)
			return 1
		}
	}
	if code := writeVetx(cfg, stderr); code != 0 {
		return code
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

// typecheckFailure handles a package we could not parse or type-check:
// fatal unless cmd/go asked otherwise.
func typecheckFailure(cfg *VetConfig, stderr io.Writer, err error) int {
	if cfg.SucceedOnTypecheckFailure {
		return writeVetx(cfg, stderr)
	}
	fmt.Fprintf(stderr, "vetdp: %s: %v\n", cfg.ImportPath, err)
	return 1
}

// writeVetx leaves the empty fact file cmd/go expects of every run and
// returns the exit code: 0, or 1 if it could not be written.
func writeVetx(cfg *VetConfig, stderr io.Writer) int {
	if cfg.VetxOutput == "" {
		return 0
	}
	if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
		fmt.Fprintf(stderr, "vetdp: %v\n", err)
		return 1
	}
	return 0
}
