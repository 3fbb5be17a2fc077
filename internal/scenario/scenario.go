// Package scenario loads dataplane scenarios from Click-style text
// files, replacing hard-coded Go builtins with configuration an operator
// edits and ships. A scenario file declares flow groups (builtin types
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
// A graph block may also declare stage cuts, turning the flow into a
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
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

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

// Flow declares one flow group.
type Flow struct {
	Name  string
	Type  string // builtin flow type name, or the name of a Graph
	Graph string // inline graph reference (sets the custom type)

	Workers       int
	Rate          float64
	RateFraction  float64
	BurstOn       int
	BurstOff      int
	Control       bool
	HiddenTrigger uint64
	SynCompute    int
	PacketSize    int
	// SLOP99US declares an end-to-end latency objective: the flow's
	// per-window p99 latency must stay at or below this many virtual
	// microseconds. Zero means no objective.
	SLOP99US float64
}

// Graph is one inline pipeline definition; Config is the Click graph
// text, kept verbatim (stage declarations excluded).
type Graph struct {
	Name   string
	Config string
	// Stages holds the graph's stage-cut declarations in declaration
	// order; empty means the graph runs to completion on one worker.
	Stages []StageDecl
}

// StageDecl assigns the named elements to one stage of a cross-worker
// service chain (`stage 1: fw, tee;` inside a graph block). Elements not
// named in any declaration inherit their predecessors' stage, so listing
// each cut's entry elements is enough. A flow using a staged graph
// occupies stages × WORKERS cores: each replica spans its stages on
// consecutive workers, in stage order — PLACE lists cores in that same
// order.
type StageDecl struct {
	Stage    int
	Elements []string
}

// MaxStage returns the graph's highest declared stage index.
func (g Graph) MaxStage() int {
	max := 0
	for _, d := range g.Stages {
		if d.Stage > max {
			max = d.Stage
		}
	}
	return max
}

// StageMap flattens the declarations into the element→stage map the apps
// layer consumes; nil when the graph is unstaged.
func (g Graph) StageMap() map[string]int {
	if len(g.Stages) == 0 {
		return nil
	}
	m := make(map[string]int)
	for _, d := range g.Stages {
		for _, el := range d.Elements {
			m[el] = d.Stage
		}
	}
	return m
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

	Flows  []Flow
	Graphs []Graph
}

// Load reads and parses a scenario file. A missing NAME defaults to the
// file's base name without extension.
func Load(path string) (*Scenario, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(string(text))
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	return s, nil
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
		staged := map[string]bool{}
		for _, d := range g.Stages {
			for _, el := range d.Elements {
				if staged[el] {
					return nil, fmt.Errorf("graph %q: element %q assigned to two stages", g.Name, el)
				}
				staged[el] = true
			}
		}
	}

	// Statement errors carry both the statement number and the line the
	// statement starts on (StripComments and extractGraphs preserve
	// newlines, so click.Statements' positions match the original file)
	// — what makes a parse error in a large sweep-authored scenario
	// findable.
	for _, stmt := range click.Statements(rest) {
		st := stmt.Text
		at := fmt.Sprintf("statement %d (line %d)", stmt.No, stmt.Line)
		name, classRef, ok := click.CutTopLevel(st, "::")
		if !ok {
			return nil, fmt.Errorf("%s: cannot parse %q (want name :: Scenario(...), name :: Platform(...) or name :: Flow(...))", at, st)
		}
		name = strings.TrimSpace(name)
		if !isFlowName(name) {
			return nil, fmt.Errorf("%s: bad name %q", at, name)
		}
		class, args, err := click.ParseClassRef(strings.TrimSpace(classRef))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", at, err)
		}
		switch class {
		case "Scenario":
			if seenScenario {
				return nil, fmt.Errorf("%s: second Scenario declaration", at)
			}
			seenScenario = true
			if err := s.applyScenarioArgs(args); err != nil {
				return nil, fmt.Errorf("%s: %w", at, err)
			}
		case "Platform":
			if s.Platform != nil {
				return nil, fmt.Errorf("%s: second Platform declaration", at)
			}
			p, err := ParsePlatformArgs(args)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", at, err)
			}
			s.Platform = p
		case "Flow":
			if names[name] {
				return nil, fmt.Errorf("%s: flow %q declared twice", at, name)
			}
			names[name] = true
			f, err := parseFlow(name, args)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", at, err)
			}
			s.Flows = append(s.Flows, f)
		default:
			return nil, fmt.Errorf("%s: unknown declaration class %q (want Scenario, Platform or Flow)", at, class)
		}
	}
	if !seenScenario {
		return nil, fmt.Errorf("missing scenario :: Scenario(...) declaration")
	}
	if len(s.Flows) == 0 {
		return nil, fmt.Errorf("scenario declares no flows")
	}
	// Every referenced graph must exist; every declared graph must be used.
	declared := map[string]bool{}
	for _, g := range s.Graphs {
		declared[g.Name] = true
	}
	used := map[string]bool{}
	for _, f := range s.Flows {
		if f.Graph != "" {
			if !declared[f.Graph] {
				return nil, fmt.Errorf("flow %q references undeclared graph %q", f.Name, f.Graph)
			}
			used[f.Graph] = true
		}
	}
	for _, g := range s.Graphs {
		if !used[g.Name] {
			return nil, fmt.Errorf("graph %q is declared but no flow uses it", g.Name)
		}
	}
	return s, nil
}

func (s *Scenario) applyScenarioArgs(args click.Args) error {
	var err error
	get := func(key string, dst *int) {
		if err != nil {
			return
		}
		*dst, err = args.Int(key, *dst)
	}
	getF := func(key string, dst *float64) {
		if err != nil {
			return
		}
		*dst, err = args.Float64(key, *dst)
	}
	s.Name = args.String("NAME", s.Name)
	get("RING", &s.RingSize)
	get("BATCH", &s.Batch)
	get("MIN_CORES_PER_SOCKET", &s.MinCoresPerSocket)
	get("MIN_SOCKETS", &s.MinSockets)
	get("FIT", &s.Fit)
	getF("DROP_THRESHOLD", &s.DropThreshold)
	getF("SYN_REGION_FRACTION", &s.SynRegionFraction)
	if err != nil {
		return err
	}
	if s.MigrateState, err = args.Uint64("MIGRATE_STATE", 0); err != nil {
		return err
	}
	if s.Admission, err = args.Bool("ADMISSION", false); err != nil {
		return err
	}
	if place := args.String("PLACE", ""); place != "" {
		for _, tok := range strings.Fields(place) {
			p, perr := parsePlacement(tok)
			if perr != nil {
				return perr
			}
			s.Place = append(s.Place, p)
		}
	}
	if s.SynRegionFraction < 0 || s.SynRegionFraction > 1 {
		return fmt.Errorf("SYN_REGION_FRACTION %v outside [0,1]", s.SynRegionFraction)
	}
	if s.Batch < 0 {
		return fmt.Errorf("BATCH %d must be positive", s.Batch)
	}
	return nil
}

func parsePlacement(tok string) (Placement, error) {
	if sock, core, ok := strings.Cut(tok, ":"); ok {
		if !strings.HasPrefix(sock, "s") {
			return Placement{}, fmt.Errorf("placement %q: want <core> or s<socket>:<core>", tok)
		}
		si, err1 := strconv.Atoi(sock[1:])
		ci, err2 := strconv.Atoi(core)
		if err1 != nil || err2 != nil || si < 0 || ci < 0 {
			return Placement{}, fmt.Errorf("placement %q: want <core> or s<socket>:<core>", tok)
		}
		return Placement{Socket: si, Core: ci}, nil
	}
	ci, err := strconv.Atoi(tok)
	if err != nil || ci < 0 {
		return Placement{}, fmt.Errorf("placement %q: want <core> or s<socket>:<core>", tok)
	}
	return Placement{Socket: -1, Core: ci}, nil
}

func parseFlow(name string, args click.Args) (Flow, error) {
	f := Flow{Name: name, Workers: 1}
	f.Type = args.String("TYPE", "")
	f.Graph = args.String("GRAPH", "")
	switch {
	case f.Type == "" && f.Graph == "":
		return f, fmt.Errorf("flow %q needs TYPE or GRAPH", name)
	case f.Type != "" && f.Graph != "":
		return f, fmt.Errorf("flow %q sets both TYPE and GRAPH", name)
	case f.Graph != "":
		f.Type = f.Graph
	}
	var err error
	geti := func(key string, dst *int) {
		if err != nil {
			return
		}
		*dst, err = args.Int(key, *dst)
	}
	geti("WORKERS", &f.Workers)
	geti("BURST_ON", &f.BurstOn)
	geti("BURST_OFF", &f.BurstOff)
	geti("SYN_COMPUTE", &f.SynCompute)
	geti("PACKET_SIZE", &f.PacketSize)
	if err != nil {
		return f, err
	}
	if f.Rate, err = args.Float64("RATE", 0); err != nil {
		return f, err
	}
	if f.RateFraction, err = args.Float64("RATE_FRACTION", 0); err != nil {
		return f, err
	}
	if f.SLOP99US, err = args.Float64("SLO_P99_US", 0); err != nil {
		return f, err
	}
	if f.Control, err = args.Bool("CONTROL", false); err != nil {
		return f, err
	}
	if f.HiddenTrigger, err = args.Uint64("HIDDEN_TRIGGER", 0); err != nil {
		return f, err
	}
	if f.Workers <= 0 {
		return f, fmt.Errorf("flow %q needs at least one worker", name)
	}
	if f.HiddenTrigger > 0 && !strings.EqualFold(f.Type, string(apps.FW)) {
		// The aggressor is an FW pipeline by construction (see
		// apps.Params.BuildHiddenAggressor, which enforces the same rule
		// for hand-built configurations).
		return f, fmt.Errorf("flow %q: HIDDEN_TRIGGER builds an %s aggressor and cannot be combined with type %s", name, apps.FW, f.Type)
	}
	return f, nil
}

// flowStages returns how many workers one replica of f occupies: the
// stage count of its graph, or 1 for builtins and unstaged graphs.
func (s *Scenario) flowStages(f Flow) int {
	for _, g := range s.Graphs {
		if g.Name == f.Type {
			if len(g.Stages) == 0 {
				return 1
			}
			return g.MaxStage() + 1
		}
	}
	return 1
}

// flowType resolves a flow's type string: a declared graph name wins,
// otherwise it must be a builtin flow type.
func (s *Scenario) flowType(f Flow) (apps.FlowType, error) {
	for _, g := range s.Graphs {
		if g.Name == f.Type {
			return apps.FlowType(g.Name), nil
		}
	}
	return apps.ParseFlowType(f.Type)
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
// given platform and workload scale — the file-based counterpart of
// runtime.ScenarioConfig. The file's platform block, if any, is applied
// to cfg first; callers that already resolved platform precedence
// themselves (the sweep harness layering variants, the CLI layering
// -platform) use ConfigOn instead.
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
		// The modelled batch must reach both the cost model (Params, so
		// offline profiling and the runtime's receive path charge the
		// same amortized poll) and the runtime's burst size (Config.Batch,
		// set below).
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
				if f.Graph == g.Name && f.PacketSize > 0 {
					pktSize = f.PacketSize
				}
			}
			custom[t] = apps.CustomFlow{Config: g.Config, PacketSize: pktSize, Stages: g.StageMap()}
		}
		params.Custom = custom
	}

	out := runtime.Config{Cfg: cfg, Params: params, Scenario: s.Name}
	fit := 0
	if s.Fit > 0 {
		fit = cfg.CoresPerSocket
		if fit > s.Fit {
			fit = s.Fit
		}
	}
	total := 0
	for _, f := range s.Flows {
		t, err := s.flowType(f)
		if err != nil {
			return runtime.Config{}, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		// A staged graph's replica occupies one core per stage.
		cores := f.Workers * s.flowStages(f)
		if fit > 0 && total+cores > fit {
			break
		}
		total += cores
		out.Apps = append(out.Apps, runtime.AppSpec{
			Name: f.Name, Type: t, Workers: f.Workers,
			Rate: f.Rate, RateFraction: f.RateFraction,
			BurstOn: f.BurstOn, BurstOff: f.BurstOff,
			Control: f.Control, HiddenTrigger: f.HiddenTrigger,
			SynCompute: f.SynCompute, PacketSize: f.PacketSize,
			SLOP99US: f.SLOP99US,
		})
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
	if s.Batch > 0 {
		out.Batch = s.Batch
	}
	out.Admission = s.Admission
	out.DropThreshold = s.DropThreshold
	out.MigrateState = s.MigrateState
	return out, nil
}

// Render writes the scenario back as canonical text; Parse(Render(s)) is
// structurally identical to s (graph bodies are preserved verbatim).
func (s *Scenario) Render() string {
	var b strings.Builder
	b.WriteString("scenario :: Scenario(")
	var attrs []string
	add := func(format string, a ...interface{}) {
		attrs = append(attrs, fmt.Sprintf(format, a...))
	}
	if s.Name != "" {
		add("NAME %s", s.Name)
	}
	if s.RingSize != 0 {
		add("RING %d", s.RingSize)
	}
	if s.Batch != 0 {
		add("BATCH %d", s.Batch)
	}
	if s.Admission {
		add("ADMISSION true")
	}
	if s.DropThreshold != 0 {
		add("DROP_THRESHOLD %v", s.DropThreshold)
	}
	if s.MigrateState != 0 {
		add("MIGRATE_STATE %d", s.MigrateState)
	}
	if s.MinCoresPerSocket != 0 {
		add("MIN_CORES_PER_SOCKET %d", s.MinCoresPerSocket)
	}
	if s.MinSockets != 0 {
		add("MIN_SOCKETS %d", s.MinSockets)
	}
	if s.Fit != 0 {
		add("FIT %d", s.Fit)
	}
	if s.SynRegionFraction != 0 {
		add("SYN_REGION_FRACTION %v", s.SynRegionFraction)
	}
	if len(s.Place) > 0 {
		toks := make([]string, len(s.Place))
		for i, p := range s.Place {
			if p.Socket < 0 {
				toks[i] = strconv.Itoa(p.Core)
			} else {
				toks[i] = fmt.Sprintf("s%d:%d", p.Socket, p.Core)
			}
		}
		add("PLACE %s", strings.Join(toks, " "))
	}
	b.WriteString(strings.Join(attrs, ", "))
	b.WriteString(");\n")

	if s.Platform != nil {
		fmt.Fprintf(&b, "\nplatform :: Platform(%s);\n", strings.Join(s.Platform.renderArgs(), ", "))
	}

	for _, g := range s.Graphs {
		fmt.Fprintf(&b, "\ngraph %s {%s", g.Name, g.Config)
		// Stage declarations re-attach right after the Click text so the
		// next parse strips them back out byte-for-byte.
		for _, d := range g.Stages {
			fmt.Fprintf(&b, "stage %d: %s;", d.Stage, strings.Join(d.Elements, " "))
		}
		b.WriteString("}\n")
	}

	for _, f := range s.Flows {
		attrs = attrs[:0]
		if f.Graph != "" {
			add("GRAPH %s", f.Graph)
		} else {
			add("TYPE %s", f.Type)
		}
		if f.Workers != 1 {
			add("WORKERS %d", f.Workers)
		}
		if f.Rate != 0 {
			add("RATE %v", f.Rate)
		}
		if f.RateFraction != 0 {
			add("RATE_FRACTION %v", f.RateFraction)
		}
		if f.BurstOn != 0 {
			add("BURST_ON %d", f.BurstOn)
		}
		if f.BurstOff != 0 {
			add("BURST_OFF %d", f.BurstOff)
		}
		if f.Control {
			add("CONTROL true")
		}
		if f.HiddenTrigger != 0 {
			add("HIDDEN_TRIGGER %d", f.HiddenTrigger)
		}
		if f.SynCompute != 0 {
			add("SYN_COMPUTE %d", f.SynCompute)
		}
		if f.PacketSize != 0 {
			add("PACKET_SIZE %d", f.PacketSize)
		}
		if f.SLOP99US != 0 {
			add("SLO_P99_US %v", f.SLOP99US)
		}
		fmt.Fprintf(&b, "\n%s :: Flow(%s);", f.Name, strings.Join(attrs, ", "))
	}
	b.WriteString("\n")
	return b.String()
}

// extractGraphs pulls `graph NAME { ... }` blocks out of
// comment-stripped text, returning the remaining statement stream and
// the blocks in declaration order. Graph bodies must not contain braces.
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
		cfg, decls, err := stripStageDecls(name, s[j+1:j+closing])
		if err != nil {
			return "", nil, err
		}
		graphs = append(graphs, Graph{Name: name, Config: cfg, Stages: decls})
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

// stripStageDecls pulls `stage N: el el;` statements out of a graph body,
// returning the remaining Click text byte-for-byte except that the
// declarations themselves are removed (first keyword byte through
// terminating semicolon) and a dangling final statement gains its ';',
// so that parse → render → parse is stable.
func stripStageDecls(graph, body string) (string, []StageDecl, error) {
	var out strings.Builder
	var decls []StageDecl
	parts := click.SplitTopLevel(body, ";")
	for i, stmt := range parts {
		terminated := i < len(parts)-1 // every part but the last had a ';'
		lead := len(stmt) - len(strings.TrimLeft(stmt, " \t\r\n"))
		trimmed := stmt[lead:]
		switch {
		case !isStageDecl(trimmed):
			out.WriteString(stmt)
			if terminated || trimmed != "" {
				// Terminating a dangling final statement keeps the Click
				// text well-formed when Render re-attaches stage
				// declarations after it (and makes parse → render → parse
				// stable from the first parse on).
				out.WriteByte(';')
			}
		case !terminated:
			return "", nil, fmt.Errorf("graph %q: stage declaration %q missing ';'", graph, snippet(trimmed))
		default:
			d, err := parseStageDecl(trimmed)
			if err != nil {
				return "", nil, fmt.Errorf("graph %q: %w", graph, err)
			}
			decls = append(decls, d)
			out.WriteString(stmt[:lead])
		}
	}
	return out.String(), decls, nil
}

// isStageDecl reports whether a trimmed graph statement is a stage-cut
// declaration: the keyword `stage` followed by a stage number. An element
// that happens to be named stage (`stage :: Counter`, `stage -> out`) is
// ordinary Click text.
func isStageDecl(trimmed string) bool {
	if !wordAt(trimmed, 0, "stage") {
		return false
	}
	rest := strings.TrimLeft(trimmed[len("stage"):], " \t\r\n")
	return rest != "" && rest[0] >= '0' && rest[0] <= '9'
}

// parseStageDecl parses "stage N: el[,] el ...".
func parseStageDecl(s string) (StageDecl, error) {
	rest := strings.TrimSpace(s[len("stage"):])
	num, names, ok := strings.Cut(rest, ":")
	if !ok {
		return StageDecl{}, fmt.Errorf("stage declaration %q wants `stage N: element ...`", snippet(s))
	}
	n, err := strconv.Atoi(strings.TrimSpace(num))
	if err != nil || n < 0 {
		return StageDecl{}, fmt.Errorf("stage declaration %q: bad stage number %q", snippet(s), strings.TrimSpace(num))
	}
	d := StageDecl{Stage: n}
	for _, tok := range strings.FieldsFunc(names, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t' || r == '\n' || r == '\r'
	}) {
		d.Elements = append(d.Elements, tok)
	}
	if len(d.Elements) == 0 {
		return StageDecl{}, fmt.Errorf("stage declaration %q names no elements", snippet(s))
	}
	return d, nil
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
