package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pktpredict/internal/click"
	"pktpredict/internal/scenario"
)

// PlatformVariant is one point on the sweep's platform axis: a named
// override set applied to the base (-scale) platform. A nil Platform —
// declared `base :: Platform();` — runs the base platform unchanged.
type PlatformVariant struct {
	Name     string
	Platform *scenario.Platform
}

// RunSpec is one point on the sweep's scenario axis: a scenario file and
// its prediction-error tolerance (0 means the sweep default applies).
// The tolerances shipped in examples/sweeps are the per-mix bounds
// validate_test.go enforces in CI.
type RunSpec struct {
	Name      string
	File      string
	Tolerance float64
}

// runKeys declares every Run(...) key.
var runKeys = []click.Key[RunSpec]{
	click.String("FILE", func(r *RunSpec) *string { return &r.File }),
	click.Float("TOLERANCE", "[0,1)", func(r *RunSpec) *float64 { return &r.Tolerance }),
}

// Config is a parsed .sweep file: the declarative grid
// platforms × loads × scenarios plus the execution knobs shared by
// every point.
type Config struct {
	Name string

	// Duration/Warmup are virtual seconds measured/discarded per point;
	// Quantum and ControlEvery mirror the runtime knobs of the same name.
	Duration     float64
	Warmup       float64
	Quantum      uint64
	ControlEvery int

	// Parallel caps how many grid points execute concurrently
	// (goroutine-isolated runs); 0 lets the runner pick.
	Parallel int

	// Tolerance is the default |observed − expected| drop bound a point's
	// validated apps must meet; RunSpec.Tolerance overrides it per
	// scenario.
	Tolerance float64

	// Loads are offered-load multipliers applied to every flow of every
	// scenario (1 = the rates as written; saturating flows are paced to
	// the given fraction of their solo rate when the multiplier is < 1).
	Loads []float64

	Platforms []PlatformVariant
	Runs      []RunSpec
}

// sweepKeys declares every Sweep(...) key.
var sweepKeys = []click.Key[Config]{
	click.String("NAME", func(c *Config) *string { return &c.Name }),
	// Duration is measured virtual time; warmup is excluded on top of it.
	click.Float("DURATION", "(0,)", func(c *Config) *float64 { return &c.Duration }),
	click.Float("WARMUP", "[0,)", func(c *Config) *float64 { return &c.Warmup }),
	click.Uint("QUANTUM", "[1000,)", func(c *Config) *uint64 { return &c.Quantum }),
	click.Int("CONTROL_EVERY", "[1,)", func(c *Config) *int { return &c.ControlEvery }),
	click.Int("PARALLEL", "[0,)", func(c *Config) *int { return &c.Parallel }),
	click.Float("TOLERANCE", "(0,1)", func(c *Config) *float64 { return &c.Tolerance }),
	click.Floats("LOADS", "(0,4]", func(c *Config) *[]float64 { return &c.Loads }),
}

// KeyTables lists every key of the .sweep grammar's own declaration
// classes (Platform(...) is scenario.KeyTables'), in canonical order.
func KeyTables() map[string][]string {
	return map[string][]string{"Sweep": click.KeyNames(sweepKeys), "Run": click.KeyNames(runKeys)}
}

// Points returns the grid size.
func (c *Config) Points() int {
	return len(c.Platforms) * len(c.Loads) * len(c.Runs)
}

// LoadConfig reads and parses a sweep file; scenario FILE paths are
// resolved relative to the sweep file's directory. A missing NAME
// defaults to the file's base name without extension.
func LoadConfig(path string) (*Config, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	c, err := ParseConfig(string(text))
	if err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	if c.Name == "" {
		c.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	dir := filepath.Dir(path)
	for i := range c.Runs {
		if !filepath.IsAbs(c.Runs[i].File) {
			c.Runs[i].File = filepath.Join(dir, c.Runs[i].File)
		}
	}
	return c, nil
}

// ParseConfig parses sweep text. The grammar reuses the scenario files'
// lexical conventions (Click comments, `name :: Class(ARGS);`
// declarations) with three declaration classes:
//
//	sweep :: Sweep(NAME paper_mixes, DURATION 0.006, WARMUP 0.0003,
//	               QUANTUM 100000, CONTROL_EVERY 4, PARALLEL 4,
//	               TOLERANCE 0.15, LOADS 0.6 0.85 1.0);
//
//	base     :: Platform();
//	small_l3 :: Platform(L3_BYTES 524288);
//
//	mixed  :: Run(FILE ../scenarios/mixed.click);
//	thrash :: Run(FILE ../scenarios/thrash.click, TOLERANCE 0.20);
func ParseConfig(text string) (*Config, error) {
	stripped, err := click.StripComments(text)
	if err != nil {
		return nil, err
	}
	c := &Config{
		Duration:     0.006,
		Warmup:       0.0003,
		Quantum:      100_000,
		ControlEvery: 4,
		Tolerance:    0.15,
	}
	seenSweep := false
	names := map[string]bool{}
	err = scenario.Declarations(stripped, []string{"Sweep", "Platform", "Run"}, func(name, class string, args click.Args) error {
		if names[name] {
			return fmt.Errorf("name %q declared twice", name)
		}
		names[name] = true
		switch class {
		case "Sweep":
			if seenSweep {
				return fmt.Errorf("second Sweep declaration")
			}
			seenSweep = true
			return click.Decode("sweep", sweepKeys, args, c)
		case "Platform":
			p, err := scenario.ParsePlatformArgs(args)
			c.Platforms = append(c.Platforms, PlatformVariant{Name: name, Platform: p})
			return err
		default:
			r := RunSpec{Name: name}
			if err := click.Decode(fmt.Sprintf("run %q", name), runKeys, args, &r); err != nil {
				return err
			}
			if r.File == "" {
				return fmt.Errorf("run %q needs FILE", name)
			}
			c.Runs = append(c.Runs, r)
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	if !seenSweep {
		return nil, fmt.Errorf("missing sweep :: Sweep(...) declaration")
	}
	if len(c.Runs) == 0 {
		return nil, fmt.Errorf("sweep declares no runs")
	}
	if len(c.Platforms) == 0 {
		c.Platforms = []PlatformVariant{{Name: "base"}}
	}
	if len(c.Loads) == 0 {
		c.Loads = []float64{1}
	}
	return c, nil
}
