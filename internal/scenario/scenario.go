// Package scenario loads dataplane scenarios from Click-style text
// files — the only statement of a workload: configuration an operator
// edits and ships, with no Go-coded catalogue beside it (the shipped
// examples/scenarios files are resolved by name through Shipped). A
// scenario file declares flow groups (builtin types
// or Click graphs defined inline), their offered rates and pacing,
// replica counts, core placement, and the runtime knobs a scenario
// needs, e.g.:
//
//	scenario :: Scenario(NAME nat_chain, MIN_CORES_PER_SOCKET 4);
//
//	graph NATFW {
//	    src :: FromDevice(SIZE 64);
//	    cls :: IPClassifier(tcp, udp, -);
//	    src -> CheckIPHeader -> cls;
//	    cls[0] -> IPRewriter(CAPACITY 65536) -> ToDevice;
//	    cls[1] -> ToDevice;
//	    cls[2] -> Discard;
//	}
//
//	natfw :: Flow(GRAPH NATFW, WORKERS 2);
//	mon   :: Flow(TYPE MON, RATE_FRACTION 0.7);
//
// A graph block is Click text, checked by click.Parse when the file is
// loaded, and may cut itself into stages, turning the flow into a
// cross-worker service chain: `stage 1: fw;` moves fw — and everything
// downstream of it — onto a second worker connected by a hand-off ring.
// Each replica of a staged flow occupies one core per stage, consecutive
// in worker order, so PLACE pins stages individually (e.g. PLACE s0:0
// s1:0 runs stage 0 on socket 0 and stage 1 across the interconnect).
//
// A file may also declare the platform it wants to run on:
//
//	platform :: Platform(SOCKETS 2, CORES_PER_SOCKET 4, L3_BYTES 6291456);
//
// overriding only the named knobs of the base platform (see Platform for
// the key set and precedence rules) — this is what lets one scenario be
// evaluated across platform shapes, the paper's evaluation axis that
// internal/sweep grids over.
//
// Config turns a parsed scenario into a runtime.Config on a concrete
// platform; inline graphs become custom flow types (apps.Params.Custom),
// so offline profiling and the concurrent runtime treat them exactly
// like builtin workloads. See docs/scenario-format.md for the complete
// grammar reference.
package scenario

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"pktpredict/examples/scenarios"
	"pktpredict/internal/apps"
	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/runtime"
)

// Placement pins one worker to a core: either an absolute core index
// (Socket < 0) or core Core of socket Socket.
type Placement struct {
	Socket int // -1 for an absolute core index
	Core   int
}

// Graph is one inline pipeline definition; Config is the block's body —
// Click text, `stage N:` statements included — kept verbatim.
type Graph struct {
	Name   string
	Config string
}

// Scenario is a parsed scenario file.
type Scenario struct {
	Name string

	RingSize int
	// Batch is the modelled receive batch size (`BATCH 16`): descriptor
	// and RX-poll costs are charged once per batch of this many packets,
	// per-packet execution stays per packet, and the runtime's workers
	// drain bursts of this size. 0 (the default) and 1 both mean the
	// historical unbatched cost model.
	Batch             int
	Admission         bool
	DropThreshold     float64
	MinCoresPerSocket int
	MinSockets        int
	// MigrateState is the state-migration footprint threshold in bytes
	// (`MIGRATE_STATE 1048576`): a re-placed flow whose tables fit copies
	// them to its new socket, a bigger one keeps them remote. Zero (the
	// default) leaves state behind on every migration.
	MigrateState uint64
	// Fit caps the total worker count at min(cores per socket, Fit),
	// admitting declared flows in order until the cap is hit — how the
	// mixed scenario fills exactly one socket on any platform.
	Fit               int
	SynRegionFraction float64
	Place             []Placement

	// Platform is the file's platform :: Platform(...) override block,
	// nil when the file declares none and runs on the base platform
	// unchanged.
	Platform *Platform

	// Flows are the declared flow groups in declaration order, each type
	// already resolved: the name of a declared graph, or a builtin.
	Flows  []runtime.AppSpec
	Graphs []Graph
}

// scenarioKeys declares every Scenario(...) key.
var scenarioKeys = []click.Key[Scenario]{
	click.String("NAME", func(s *Scenario) *string { return &s.Name }),
	click.Int("RING", "[1,1048576]", func(s *Scenario) *int { return &s.RingSize }),
	click.Int("BATCH", "[0,)", func(s *Scenario) *int { return &s.Batch }),
	click.Bool("ADMISSION", func(s *Scenario) *bool { return &s.Admission }),
	click.Float("DROP_THRESHOLD", "[0,1]", func(s *Scenario) *float64 { return &s.DropThreshold }),
	click.Uint("MIGRATE_STATE", "", func(s *Scenario) *uint64 { return &s.MigrateState }),
	click.Int("MIN_CORES_PER_SOCKET", "[0,)", func(s *Scenario) *int { return &s.MinCoresPerSocket }),
	click.Int("MIN_SOCKETS", "[0,)", func(s *Scenario) *int { return &s.MinSockets }),
	click.Int("FIT", "[0,)", func(s *Scenario) *int { return &s.Fit }),
	click.Float("SYN_REGION_FRACTION", "[0,1]", func(s *Scenario) *float64 { return &s.SynRegionFraction }),
	click.List("PLACE", "", func(s *Scenario) *[]Placement { return &s.Place }, parsePlacement, Placement.String),
}

// flowDecl is a Flow(...) declaration as written: the flow group, plus
// which of TYPE and GRAPH named its type. Parse resolves the pair into
// AppSpec.Type; Render re-derives it from whether the type names a
// declared graph.
type flowDecl struct {
	runtime.AppSpec
	typ, graph string
}

// flowKeys declares every Flow(...) key; all but TYPE and GRAPH land
// directly in the runtime.AppSpec a flow group is.
var flowKeys = []click.Key[flowDecl]{
	click.String("TYPE", func(f *flowDecl) *string { return &f.typ }),
	click.String("GRAPH", func(f *flowDecl) *string { return &f.graph }),
	click.Int("WORKERS", "[1,)", func(f *flowDecl) *int { return &f.Workers }),
	click.Float("RATE", "[0,)", func(f *flowDecl) *float64 { return &f.Rate }),
	click.Float("RATE_FRACTION", "[0,)", func(f *flowDecl) *float64 { return &f.RateFraction }),
	click.Int("BURST_ON", "[0,)", func(f *flowDecl) *int { return &f.BurstOn }),
	click.Int("BURST_OFF", "[0,)", func(f *flowDecl) *int { return &f.BurstOff }),
	click.Bool("CONTROL", func(f *flowDecl) *bool { return &f.Control }),
	click.Uint("HIDDEN_TRIGGER", "", func(f *flowDecl) *uint64 { return &f.HiddenTrigger }),
	click.Int("SYN_COMPUTE", "[0,)", func(f *flowDecl) *int { return &f.SynCompute }),
	click.Int("PACKET_SIZE", "[0,65535]", func(f *flowDecl) *int { return &f.PacketSize }),
	click.Float("SLO_P99_US", "[0,)", func(f *flowDecl) *float64 { return &f.SLOP99US }),
}

// flowDefaults holds the value of every Flow key a declaration omits.
var flowDefaults = flowDecl{AppSpec: runtime.AppSpec{Workers: 1}}

// KeyTables lists every key of the scenario grammar by declaration
// class, in canonical order — the tables as data, for the checks that
// hold the reference documentation to them.
func KeyTables() map[string][]string {
	return map[string][]string{
		"Scenario": click.KeyNames(scenarioKeys),
		"Platform": click.KeyNames(platformKeys),
		"Flow":     click.KeyNames(flowKeys),
	}
}

// Load reads and parses a scenario file. A missing NAME defaults to the
// file's base name without extension.
func Load(path string) (*Scenario, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return parseFile(path, text)
}

// Shipped parses the shipped scenario of the given name — the file
// examples/scenarios/NAME.click, embedded in the binary so a command
// resolves it from any directory.
func Shipped(name string) (*Scenario, error) {
	file := strings.ToLower(name) + ".click"
	text, err := scenarios.Files.ReadFile(file)
	if err != nil {
		return nil, fmt.Errorf("scenario: no shipped scenario %q (have %s)", name, strings.Join(ShippedNames(), ", "))
	}
	return parseFile(file, text)
}

// ShippedNames lists the shipped scenarios, sorted.
func ShippedNames() []string {
	entries, _ := scenarios.Files.ReadDir(".") // an embedded directory always reads
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = strings.TrimSuffix(e.Name(), ".click")
	}
	return names
}

func parseFile(path string, text []byte) (*Scenario, error) {
	s, err := Parse(string(text))
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	return s, nil
}

// Declarations calls each for every `name :: Class(KEY VALUE, ...);`
// statement of comment-stripped text, in order — the lexical layer
// scenario and sweep files share. A statement that is not a declaration
// of one of classes is an error; every error, each's included, is
// prefixed with the statement number and the line the statement starts
// on (StripComments and extractGraphs preserve newlines, so the
// positions match the original file) — what makes a parse error in a
// large generated file findable.
func Declarations(text string, classes []string, each func(name, class string, args click.Args) error) error {
	want := strings.Join(classes[:len(classes)-1], ", ") + " or " + classes[len(classes)-1]
	for _, stmt := range click.Statements(text) {
		err := func() error {
			name, classRef, ok := click.CutTopLevel(stmt.Text, "::")
			if !ok {
				return fmt.Errorf("cannot parse %q (want name :: Class(...) with Class one of %s)", stmt.Text, want)
			}
			class, args, err := click.ParseClassRef(strings.TrimSpace(classRef))
			if err != nil {
				return err
			}
			if !slices.Contains(classes, class) {
				return fmt.Errorf("unknown declaration class %q (want %s)", class, want)
			}
			return each(strings.TrimSpace(name), class, args)
		}()
		if err != nil {
			return fmt.Errorf("statement %d (line %d): %w", stmt.No, stmt.Line, err)
		}
	}
	return nil
}

// Parse parses scenario text.
func Parse(text string) (*Scenario, error) {
	stripped, err := click.StripComments(text)
	if err != nil {
		return nil, err
	}
	rest, graphs, err := extractGraphs(stripped)
	if err != nil {
		return nil, err
	}
	s := &Scenario{Graphs: graphs}
	seenScenario := false
	names := map[string]bool{}
	for _, g := range graphs {
		if names[g.Name] {
			return nil, fmt.Errorf("graph %q declared twice", g.Name)
		}
		names[g.Name] = true
	}

	err = Declarations(rest, []string{"Scenario", "Platform", "Flow"}, func(name, class string, args click.Args) error {
		if !isFlowName(name) {
			return fmt.Errorf("bad name %q", name)
		}
		switch class {
		case "Scenario":
			if seenScenario {
				return fmt.Errorf("second Scenario declaration")
			}
			seenScenario = true
			return click.Decode("scenario", scenarioKeys, args, s)
		case "Platform":
			if s.Platform != nil {
				return fmt.Errorf("second Platform declaration")
			}
			p, err := ParsePlatformArgs(args)
			s.Platform = p
			return err
		default:
			if names[name] {
				return fmt.Errorf("flow %q declared twice", name)
			}
			names[name] = true
			f, err := s.parseFlow(name, args)
			s.Flows = append(s.Flows, f)
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	if !seenScenario {
		return nil, fmt.Errorf("missing scenario :: Scenario(...) declaration")
	}
	if len(s.Flows) == 0 {
		return nil, fmt.Errorf("scenario declares no flows")
	}
	// Every declared graph must be used (parseFlow checked the converse).
	used := map[string]bool{}
	for _, f := range s.Flows {
		used[string(f.Type)] = true
	}
	for _, g := range s.Graphs {
		if !used[g.Name] {
			return nil, fmt.Errorf("graph %q is declared but no flow uses it", g.Name)
		}
	}
	return s, nil
}

func parsePlacement(tok string) (Placement, error) {
	bad := errors.New("is not a placement (want <core> or s<socket>:<core>)")
	p, core := Placement{Socket: -1}, tok
	var err error
	if sock, rest, ok := strings.Cut(tok, ":"); ok {
		if !strings.HasPrefix(sock, "s") {
			return p, bad
		}
		if p.Socket, err = strconv.Atoi(sock[1:]); err != nil || p.Socket < 0 {
			return p, bad
		}
		core = rest
	}
	if p.Core, err = strconv.Atoi(core); err != nil || p.Core < 0 {
		return p, bad
	}
	return p, nil
}

// String renders the placement as PLACE writes it.
func (p Placement) String() string {
	if p.Socket < 0 {
		return strconv.Itoa(p.Core)
	}
	return fmt.Sprintf("s%d:%d", p.Socket, p.Core)
}

// parseFlow decodes one Flow(...) declaration and resolves its type
// against the file's graphs: a declared graph name wins, otherwise it
// must be a builtin flow type.
func (s *Scenario) parseFlow(name string, args click.Args) (runtime.AppSpec, error) {
	d := flowDefaults
	d.Name = name
	if err := click.Decode(fmt.Sprintf("flow %q", name), flowKeys, args, &d); err != nil {
		return d.AppSpec, err
	}
	ref := d.typ + d.graph // the type's name: past the first two cases exactly one is set
	switch {
	case d.typ == "" && d.graph == "":
		return d.AppSpec, fmt.Errorf("flow %q needs TYPE or GRAPH", name)
	case d.typ != "" && d.graph != "":
		return d.AppSpec, fmt.Errorf("flow %q sets both TYPE and GRAPH", name)
	case d.graph != "" && s.graph(d.graph) == nil:
		return d.AppSpec, fmt.Errorf("flow %q references undeclared graph %q", name, d.graph)
	case s.graph(ref) != nil:
		d.Type = apps.FlowType(ref)
	default:
		var err error
		if d.Type, err = apps.ParseFlowType(d.typ); err != nil {
			return d.AppSpec, fmt.Errorf("flow %q: %w", name, err)
		}
	}
	if (d.BurstOn > 0) != (d.BurstOff > 0) {
		return d.AppSpec, fmt.Errorf("flow %q: BURST_ON %d and BURST_OFF %d gate the source together; set both positive or neither", name, d.BurstOn, d.BurstOff)
	}
	if d.HiddenTrigger > 0 && d.Type != apps.FW {
		// The aggressor is an FW pipeline by construction (see
		// apps.Params.BuildSpec, which enforces the same rule for
		// hand-built configurations).
		return d.AppSpec, fmt.Errorf("flow %q: HIDDEN_TRIGGER builds an %s aggressor and cannot be combined with type %s", name, apps.FW, d.Type)
	}
	return d.AppSpec, nil
}

// graph returns the declared graph of that name, or nil.
func (s *Scenario) graph(name string) *Graph {
	for i := range s.Graphs {
		if s.Graphs[i].Name == name {
			return &s.Graphs[i]
		}
	}
	return nil
}

// PlatformConfig returns base with the file's platform block applied —
// the effective platform the scenario asks to run on. Without a block it
// returns base unchanged.
func (s *Scenario) PlatformConfig(base hw.Config) (hw.Config, error) {
	cfg, err := s.Platform.Apply(base)
	if err != nil {
		return hw.Config{}, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return cfg, nil
}

// Config assembles the runtime configuration of the scenario on the
// given platform and workload scale. Profiles are left nil; callers
// attach them (see runtime.ProfileFlows) before NewRuntime when
// prediction, admission, or re-placement is wanted. The file's platform
// block, if any, is applied to cfg first; callers that already resolved
// platform precedence themselves (the sweep harness layering variants,
// the CLI layering -platform) use ConfigOn instead.
func (s *Scenario) Config(cfg hw.Config, params apps.Params) (runtime.Config, error) {
	applied, err := s.PlatformConfig(cfg)
	if err != nil {
		return runtime.Config{}, err
	}
	return s.ConfigOn(applied, params)
}

// ConfigOn assembles the runtime configuration on exactly cfg, treating
// it as the already-resolved effective platform (the file's platform
// block is NOT applied again).
func (s *Scenario) ConfigOn(cfg hw.Config, params apps.Params) (runtime.Config, error) {
	if cfg.CoresPerSocket < s.MinCoresPerSocket {
		return runtime.Config{}, fmt.Errorf("scenario %s needs ≥%d cores per socket", s.Name, s.MinCoresPerSocket)
	}
	if cfg.Sockets < s.MinSockets {
		return runtime.Config{}, fmt.Errorf("scenario %s needs ≥%d sockets", s.Name, s.MinSockets)
	}
	if s.SynRegionFraction > 0 {
		params.SynRegionBytes = int(s.SynRegionFraction * float64(cfg.L3.SizeBytes))
	}
	if s.Batch > 0 {
		// The modelled batch reaches the cost model (Params, so offline
		// profiling and the runtime's receive path charge the same
		// amortized poll) and, through it, the runtime's burst size.
		params.RxBatch = s.Batch
	}
	if len(s.Graphs) > 0 {
		custom := make(map[apps.FlowType]apps.CustomFlow, len(s.Graphs))
		for t, cf := range params.Custom {
			custom[t] = cf
		}
		for _, g := range s.Graphs {
			t := apps.FlowType(g.Name)
			// A graph must not shadow (or be shadowed by) a builtin flow
			// type: SYN/SYN_MAX would silently win over the graph, and a
			// graph named MON would silently replace the builtin for every
			// Flow(TYPE MON) including offline profiling.
			if _, builtin := apps.ParseFlowType(g.Name); builtin == nil {
				return runtime.Config{}, fmt.Errorf("scenario %s: graph %q collides with a builtin flow type", s.Name, g.Name)
			}
			if _, clash := custom[t]; clash {
				return runtime.Config{}, fmt.Errorf("scenario %s: graph %q collides with an existing flow type", s.Name, g.Name)
			}
			pktSize := params.PacketSizeIP
			for _, f := range s.Flows {
				if string(f.Type) == g.Name && f.PacketSize > 0 {
					pktSize = f.PacketSize
				}
			}
			custom[t] = apps.CustomFlow{Config: g.Config, PacketSize: pktSize}
		}
		params.Custom = custom
	}

	out := runtime.Config{Cfg: cfg, Params: params, Scenario: s.Name}
	fit := 0
	if s.Fit > 0 {
		fit = min(cfg.CoresPerSocket, s.Fit)
	}
	total := 0
	for _, f := range s.Flows {
		// A staged graph's replica occupies one core per stage.
		cores := f.Workers * params.Stages(f.Type)
		if fit > 0 && total+cores > fit {
			break
		}
		total += cores
		out.Apps = append(out.Apps, f)
	}
	if len(out.Apps) == 0 {
		return runtime.Config{}, fmt.Errorf("scenario %s: no flows fit the platform", s.Name)
	}
	for _, p := range s.Place {
		core := p.Core
		if p.Socket >= 0 {
			if p.Socket >= cfg.Sockets || p.Core >= cfg.CoresPerSocket {
				return runtime.Config{}, fmt.Errorf("scenario %s: placement s%d:%d outside the platform", s.Name, p.Socket, p.Core)
			}
			core = p.Socket*cfg.CoresPerSocket + p.Core
		}
		out.Cores = append(out.Cores, core)
	}
	out.RingSize = s.RingSize
	out.Admission = s.Admission
	out.DropThreshold = s.DropThreshold
	out.MigrateState = s.MigrateState
	return out, nil
}

// Render writes the scenario back as canonical text; Parse(Render(s)) is
// structurally identical to s (graph bodies are preserved verbatim).
func (s *Scenario) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario :: Scenario(%s);\n", strings.Join(click.Encode(scenarioKeys, s, &Scenario{}, 0), ", "))

	if p := s.Platform; p != nil {
		fmt.Fprintf(&b, "\nplatform :: Platform(%s);\n", strings.Join(click.Encode(platformKeys, p, nil, p.named), ", "))
	}

	for _, g := range s.Graphs {
		fmt.Fprintf(&b, "\ngraph %s {%s}\n", g.Name, g.Config)
	}

	for _, f := range s.Flows {
		d := flowDecl{AppSpec: f, typ: string(f.Type)}
		if s.graph(d.typ) != nil {
			d.typ, d.graph = "", d.typ
		}
		fmt.Fprintf(&b, "\n%s :: Flow(%s);", f.Name, strings.Join(click.Encode(flowKeys, &d, &flowDefaults, 0), ", "))
	}
	b.WriteString("\n")
	return b.String()
}

// extractGraphs pulls `graph NAME { ... }` blocks out of
// comment-stripped text, returning the remaining statement stream and
// the blocks in declaration order, each body checked by click.Parse. Graph
// bodies must not contain braces.
func extractGraphs(s string) (string, []Graph, error) {
	var out strings.Builder
	var graphs []Graph
	i := 0
	for i < len(s) {
		if !wordAt(s, i, "graph") {
			out.WriteByte(s[i])
			i++
			continue
		}
		j := i + len("graph")
		for j < len(s) && isSpace(s[j]) {
			j++
		}
		nameStart := j
		for j < len(s) && isIdentByte(s[j]) {
			j++
		}
		name := s[nameStart:j]
		for j < len(s) && isSpace(s[j]) {
			j++
		}
		if name == "" || j >= len(s) || s[j] != '{' {
			return "", nil, fmt.Errorf("malformed graph block near %q (want graph NAME { ... })", snippet(s[i:]))
		}
		closing := strings.IndexByte(s[j:], '}')
		if closing < 0 {
			return "", nil, fmt.Errorf("graph %q: missing closing brace", name)
		}
		// An unbalanced body can never form a valid Click config, and it
		// would make the top-level statement splitter see different
		// statement boundaries on re-parse — reject it here so Render's
		// output is stable.
		if !click.BalancedParens(s[j+1 : j+closing]) {
			return "", nil, fmt.Errorf("graph %q: unbalanced parentheses", name)
		}
		// A graph is checked where it is loaded — everything about it that
		// needs no constructed element — and reported at the file's line.
		body := s[j+1 : j+closing]
		if _, err := click.Parse(body); err != nil {
			var at *click.Error
			if errors.As(err, &at) {
				return "", nil, fmt.Errorf("graph %s: %s (line %d)", name, at.Msg, at.Line+strings.Count(s[:j], "\n"))
			}
			return "", nil, fmt.Errorf("graph %s: %w", name, err)
		}
		graphs = append(graphs, Graph{Name: name, Config: body})
		// Keep the removed block's newlines in the statement stream so
		// line numbers reported for later statements stay true to the
		// file.
		end := j + closing + 1
		for k := i; k < end; k++ {
			if s[k] == '\n' {
				out.WriteByte('\n')
			}
		}
		i = end
	}
	return out.String(), graphs, nil
}

func wordAt(s string, i int, word string) bool {
	if !strings.HasPrefix(s[i:], word) {
		return false
	}
	if i > 0 && isIdentByte(s[i-1]) {
		return false
	}
	after := i + len(word)
	return after >= len(s) || !isIdentByte(s[after])
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func isIdentByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

// isFlowName accepts identifiers with interior dashes ("mon-a"), the
// naming style scenario flows use.
func isFlowName(s string) bool {
	if s == "" || s[0] == '-' || s[len(s)-1] == '-' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !isIdentByte(c) && c != '-' {
			return false
		}
		if c >= '0' && c <= '9' && i == 0 {
			return false
		}
	}
	return true
}

func snippet(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 40 {
		s = s[:40] + "..."
	}
	return s
}
