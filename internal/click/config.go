package click

import (
	"fmt"
	"strconv"
	"strings"
)

// maxPort bounds output port numbers in configurations; it exists to
// reject absurd port vectors, not to constrain real fan-out.
const maxPort = 255

// Error is what Parse reports: what is wrong with a configuration, and the
// line (1-based, in the text Parse was handed) of the statement at fault —
// a caller that embeds the text in a larger file adds its offset.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("click: %s (line %d)", e.Msg, e.Line) }

func errAt(line int, format string, a ...interface{}) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, a...)}
}

// Graph is a parsed and checked configuration: the shape of a pipeline —
// names, classes, arguments, port edges, stages — with nothing
// constructed. Build makes a pipeline of it, any number of times.
type Graph struct {
	elems  []*graphElem // declaration order, the order Build constructs in
	topo   []*graphElem // topological order, the source first
	stages int
}

// graphElem is one element of a Graph.
type graphElem struct {
	name, class string
	args        Args
	line        int // of the statement that declared it
	outs        map[int]*graphElem
	inDeg       int // predecessors not yet ordered; -1 once the element is
	stage       int
}

// NumStages returns how many stages the graph's `stage N:` statements cut
// it into; 1 without any.
func (g *Graph) NumStages() int { return g.stages }

// ParseConfig builds a pipeline from a Click-style configuration:
//
//	// declarations
//	src :: FromDevice(SIZE 64, SEED 7);
//	cls :: IPClassifier(tcp, udp, -);
//	nat :: IPRewriter(CAPACITY 65536);
//
//	// connections (inline anonymous elements are allowed)
//	src -> CheckIPHeader -> cls;
//	cls[0] -> nat -> ToDevice;
//	cls[1] -> nat;
//	cls[2] -> Discard;
//
//	// stage cuts: nat and everything downstream run on a second core
//	stage 1: nat;
//
// The element graph must be a DAG with a single Source at its head.
// Output ports are written el[port] on the upstream side; Router
// elements (classifiers, switches, tees) fan out across numbered ports,
// and every port a Router declares must be connected. All elements have
// a single input, so fan-in needs no port syntax ([0]el is accepted).
// It is Parse, which checks everything that needs no instance, then Build.
func ParseConfig(env *Env, name, config string) (*Pipeline, error) {
	g, err := Parse(config)
	if err != nil {
		return nil, err
	}
	return g.Build(env, name)
}

// Parse reads a configuration and checks all of it that can be checked
// without constructing an element: duplicate, undeclared and unconnected
// elements, port wiring, one head, cycles, classes against the registry,
// arguments against the class's key table, and the stage statements
// against the stage rule (cutStages). What is left for Build needs an
// instance: that the head is a Source and the rest Elements, and a
// Router's port count.
func Parse(config string) (*Graph, error) {
	stmts, err := lex(config)
	if err != nil {
		return nil, err
	}
	g := &Graph{}
	byName := make(map[string]*graphElem)
	anon := 0
	declare := func(line int, nm, class string, args Args) (*graphElem, error) {
		if _, dup := byName[nm]; dup {
			return nil, errAt(line, "element %q declared twice", nm)
		}
		if err := checkArgs(class, args); err != nil {
			return nil, errAt(line, "%q: %v", nm, err)
		}
		n := &graphElem{name: nm, class: class, args: args, line: line, outs: map[int]*graphElem{}}
		byName[nm] = n
		g.elems = append(g.elems, n)
		return n, nil
	}

	stageOf := map[string]int{}
	stageLine := map[string]int{} // element → line of the stage statement naming it
	for _, st := range stmts {
		switch st.kind {
		case stmtDecl:
			if _, err := declare(st.line, st.name, st.class, st.args); err != nil {
				return nil, err
			}
		case stmtStage:
			for _, nm := range st.names {
				if _, dup := stageOf[nm]; dup {
					return nil, errAt(st.line, "element %q assigned to two stages", nm)
				}
				stageOf[nm], stageLine[nm] = st.stage, st.line
			}
		case stmtConn:
			var prev *graphElem
			prevPort := 0
			for _, ref := range st.chain {
				var n *graphElem
				if ref.class != "" {
					// Inline anonymous element.
					anon++
					var err error
					n, err = declare(st.line, fmt.Sprintf("%s@%d", ref.class, anon), ref.class, ref.args)
					if err != nil {
						return nil, err
					}
				} else {
					var ok bool
					n, ok = byName[ref.name]
					if !ok {
						return nil, errAt(st.line, "connection references undeclared element %q", ref.name)
					}
				}
				if ref.inPort != 0 {
					return nil, errAt(st.line, "input port %d on %q: elements have a single input port 0", ref.inPort, n.name)
				}
				if prev != nil {
					if to, dup := prev.outs[prevPort]; dup {
						if to == n {
							return nil, errAt(st.line, "output port %d of %q connected twice", prevPort, prev.name)
						}
						return nil, errAt(st.line, "output port %d of %q has two downstream connections (%q and %q)",
							prevPort, prev.name, to.name, n.name)
					}
					prev.outs[prevPort] = n
					n.inDeg++
				}
				prev = n
				prevPort = ref.outPort
			}
			if prevPort != 0 {
				return nil, errAt(st.line, "dangling output port %d on %q at the end of a chain", prevPort, prev.name)
			}
		}
	}

	// One head: the unique element nothing feeds. (Elements but no head is
	// a cycle, which the ordering below reports.)
	var head *graphElem
	for _, n := range g.elems {
		if n.inDeg == 0 {
			if head != nil {
				return nil, errAt(n.line, "multiple chain heads (%q and %q); configuration must have one source", head.name, n.name)
			}
			head = n
		}
	}
	if len(g.elems) == 0 {
		return nil, errAt(1, "configuration declares no elements")
	}

	// Kahn's algorithm over declaration order: a deterministic topological
	// order, and a deterministic cycle report when none exists — an element
	// the one head does not reach sits on, or behind, a cycle too. The
	// head's single port-0 edge makes its target the first processing
	// node: it is the only one whose sole predecessor is the head.
	for len(g.topo) < len(g.elems) {
		progressed := false
		for _, n := range g.elems {
			if n.inDeg != 0 {
				continue
			}
			n.inDeg = -1
			g.topo = append(g.topo, n)
			for _, t := range n.outs {
				t.inDeg--
			}
			progressed = true
		}
		if !progressed {
			for _, n := range g.elems {
				if n.inDeg > 0 {
					return nil, errAt(n.line, "configuration contains a cycle through %q", n.name)
				}
			}
		}
	}

	// Stages, by the one rule, over the processing nodes (the source is not
	// one: under the runtime a receive ring replaces it).
	of, nodes := g.nodes()
	var at string
	if g.stages, at, err = cutStages(nodes, stageOf); err != nil {
		line, named := stageLine[at]
		if !named {
			line = byName[at].line
		}
		return nil, errAt(line, "%v", err)
	}
	for n, node := range of {
		n.stage = node.Stage
	}
	return g, nil
}

// nodes lays the graph's processing elements out as pipeline nodes — in
// topological order, wired port for port, each in its element's stage.
func (g *Graph) nodes() (of map[*graphElem]*Node, nodes []*Node) {
	of = make(map[*graphElem]*Node, len(g.topo))
	for _, n := range g.topo[1:] {
		of[n] = &Node{Name: n.name, Stage: n.stage, class: n.class}
		nodes = append(nodes, of[n])
	}
	for n, node := range of {
		for port, t := range n.outs {
			node.connect(port, of[t])
		}
	}
	return of, nodes
}

// Build constructs the graph's elements in declaration order, each from
// the arena of the stage it runs in (env.ArenaAt — per-stage NUMA-local
// placement), runs the checks that need an instance, and wires the
// pipeline, whose nodes carry their stage.
func (g *Graph) Build(env *Env, name string) (*Pipeline, error) {
	inst := make(map[*graphElem]interface{}, len(g.elems))
	for _, n := range g.elems {
		var err error
		if inst[n], err = construct(env, n); err != nil {
			return nil, fmt.Errorf("click: %q: %w", n.name, err)
		}
	}
	head := g.topo[0]
	src, ok := inst[head].(Source)
	if !ok {
		return nil, fmt.Errorf("click: chain head %q (%T) is not a packet source", head.name, inst[head])
	}

	// Validate elements and router port usage.
	of, nodes := g.nodes()
	for _, gn := range g.topo[1:] {
		if of[gn].El, ok = inst[gn].(Element); !ok {
			return nil, fmt.Errorf("click: %q (%T) is not a processing element", gn.name, inst[gn])
		}
	}
	for _, gn := range g.topo {
		connected := len(gn.outs)
		maxUsed := -1
		for port := range gn.outs {
			maxUsed = max(maxUsed, port)
		}
		r, isRouter := inst[gn].(Router)
		switch {
		case !isRouter:
			if maxUsed > 0 {
				return nil, fmt.Errorf("click: %q (%s) is not a Router; only output port 0 exists", gn.name, gn.class)
			}
			continue
		case r.NumOutputs() == AdaptiveOutputs:
			if maxUsed+1 != connected {
				return nil, fmt.Errorf("click: %q (%s) output ports must be contiguous from 0; %d ports connected but port %d used",
					gn.name, gn.class, connected, maxUsed)
			}
		default:
			if maxUsed >= r.NumOutputs() {
				return nil, fmt.Errorf("click: %q (%s) has %d output ports; port %d connected", gn.name, gn.class, r.NumOutputs(), maxUsed)
			}
			for port := 0; port < r.NumOutputs(); port++ {
				if _, ok := gn.outs[port]; !ok {
					return nil, fmt.Errorf("click: output port %d of %q (%s) is not connected", port, gn.name, gn.class)
				}
			}
		}
		if setter, ok := inst[gn].(OutputsSetter); ok {
			setter.SetOutputs(connected)
		}
	}
	pl := &Pipeline{Name: name, Source: src, nodes: nodes, srcName: head.name, numStages: g.stages}
	if len(nodes) > 0 {
		pl.head = nodes[0]
	}
	return pl, nil
}

// construct builds one element from its stage's arena, its allocations
// labelled with its name so callers can read back exactly where its state
// landed (apps records these bindings).
func construct(env *Env, n *graphElem) (interface{}, error) {
	if a := env.arenaFor(n.stage); a != env.Arena {
		e2 := *env
		e2.Arena = a
		env = &e2
	}
	defer env.Arena.SetLabel(env.Arena.SetLabel(n.name))
	return NewInstance(env, n.class, n.args)
}

type stmtKind int

const (
	stmtDecl stmtKind = iota
	stmtConn
	stmtStage
)

type elemRef struct {
	name    string // reference to a declared element, or
	class   string // inline anonymous class
	args    Args
	inPort  int // [port]el — must be 0, elements are single-input
	outPort int // el[port] — output port towards the next chain item
}

type stmt struct {
	kind  stmtKind
	line  int
	name  string // decl
	class string // decl
	args  Args   // decl
	chain []elemRef
	stage int      // stage
	names []string // stage: the elements it places
}

// lex splits a configuration into statements. The grammar is small enough
// that a hand-rolled scanner is clearer than a table-driven one.
func lex(config string) ([]stmt, error) {
	stripped, err := StripComments(config)
	if err != nil {
		return nil, err
	}
	var stmts []stmt
	for _, ts := range Statements(stripped) {
		s := ts.Text
		if isStageStmt(s) {
			st, err := parseStageStmt(s)
			if err != nil {
				return nil, errAt(ts.Line, "%v", err)
			}
			st.line = ts.Line
			stmts = append(stmts, st)
			continue
		}
		if name, rest, ok := CutTopLevel(s, "::"); ok {
			name = strings.TrimSpace(name)
			if !isIdent(name) {
				return nil, errAt(ts.Line, "bad element name %q", name)
			}
			class, args, err := ParseClassRef(strings.TrimSpace(rest))
			if err != nil {
				return nil, errAt(ts.Line, "%v", err)
			}
			stmts = append(stmts, stmt{kind: stmtDecl, line: ts.Line, name: name, class: class, args: args})
			continue
		}
		if strings.Contains(s, "->") {
			parts := SplitTopLevel(s, "->")
			if len(parts) < 2 {
				return nil, errAt(ts.Line, "dangling '->'")
			}
			var chain []elemRef
			for _, part := range parts {
				part = strings.TrimSpace(part)
				if part == "" {
					return nil, errAt(ts.Line, "empty element in chain")
				}
				ref, err := parseChainItem(part)
				if err != nil {
					return nil, errAt(ts.Line, "%v", err)
				}
				chain = append(chain, ref)
			}
			stmts = append(stmts, stmt{kind: stmtConn, line: ts.Line, chain: chain})
			continue
		}
		return nil, errAt(ts.Line, "cannot parse %q", s)
	}
	// Bare-class references in chains: if a chain item names something
	// never declared but registered as a class, treat it as anonymous.
	declared := map[string]bool{}
	for _, st := range stmts {
		if st.kind == stmtDecl {
			declared[st.name] = true
		}
	}
	for i := range stmts {
		if stmts[i].kind != stmtConn {
			continue
		}
		for j, ref := range stmts[i].chain {
			if ref.name != "" && !declared[ref.name] {
				stmts[i].chain[j] = elemRef{
					class: ref.name, args: ParseArgs(nil),
					inPort: ref.inPort, outPort: ref.outPort,
				}
			}
		}
	}
	return stmts, nil
}

// isStageStmt reports whether a statement is a stage cut: the keyword
// `stage` followed by a stage number. An element that happens to be named
// stage (`stage :: Counter`, `stage -> out`) is ordinary Click text.
func isStageStmt(s string) bool {
	rest, ok := strings.CutPrefix(s, "stage")
	num := strings.TrimLeft(rest, " \t\r\n")
	return ok && num != rest && num != "" && num[0] >= '0' && num[0] <= '9'
}

// parseStageStmt parses "stage N: el[,] el ...": the named elements run in
// stage N of a cross-core service chain, and every element no statement
// names inherits its predecessors' stage (see cutStages).
func parseStageStmt(s string) (stmt, error) {
	num, names, ok := strings.Cut(s[len("stage"):], ":")
	if !ok {
		return stmt{}, fmt.Errorf("stage statement %q wants `stage N: element ...`", s)
	}
	n, err := strconv.Atoi(strings.TrimSpace(num))
	if err != nil || n < 0 {
		return stmt{}, fmt.Errorf("stage statement %q: bad stage number %q", s, strings.TrimSpace(num))
	}
	st := stmt{kind: stmtStage, stage: n, names: strings.FieldsFunc(names, func(r rune) bool {
		return strings.ContainsRune(", \t\r\n", r)
	})}
	if len(st.names) == 0 {
		return stmt{}, fmt.Errorf("stage statement %q names no elements", s)
	}
	return st, nil
}

// parseChainItem parses one item of a connection chain:
// "[in]name[out]", "name[out]", "Class(args)[out]", "[in]Class", ...
// where the bracketed ports are optional.
func parseChainItem(s string) (elemRef, error) {
	var ref elemRef
	// Leading input port: [n]rest
	if strings.HasPrefix(s, "[") {
		end := strings.IndexByte(s, ']')
		if end < 0 {
			return ref, fmt.Errorf("unbalanced input port bracket in %q", s)
		}
		port, err := parsePort(s[1:end])
		if err != nil {
			return ref, fmt.Errorf("input port in %q: %w", s, err)
		}
		ref.inPort = port
		s = strings.TrimSpace(s[end+1:])
	}
	// Trailing output port: rest[n]. The bracket must follow the class
	// arguments (if any), so it is sought after the last ')'.
	if strings.HasSuffix(s, "]") {
		open := strings.LastIndexByte(s, '[')
		if open < 0 || open < strings.LastIndexByte(s, ')') {
			return ref, fmt.Errorf("unbalanced output port bracket in %q", s)
		}
		port, err := parsePort(s[open+1 : len(s)-1])
		if err != nil {
			return ref, fmt.Errorf("output port in %q: %w", s, err)
		}
		ref.outPort = port
		s = strings.TrimSpace(s[:open])
	}
	if s == "" {
		return ref, fmt.Errorf("port brackets without an element")
	}
	if isIdent(s) && !strings.Contains(s, "(") {
		// Could be a declared name or a bare class; resolved at build
		// time by checking declarations first.
		ref.name = s
		return ref, nil
	}
	class, args, err := ParseClassRef(s)
	if err != nil {
		return ref, err
	}
	ref.class, ref.args = class, args
	return ref, nil
}

func parsePort(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("%q is not a port number", s)
	}
	if n < 0 || n > maxPort {
		return 0, fmt.Errorf("port %d outside [0,%d]", n, maxPort)
	}
	return n, nil
}

// ParseClassRef parses "Class" or "Class(arg, arg, ...)".
func ParseClassRef(s string) (string, Args, error) {
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return "", Args{}, fmt.Errorf("unbalanced parentheses in %q", s)
		}
		class := strings.TrimSpace(s[:i])
		if !isIdent(class) {
			return "", Args{}, fmt.Errorf("bad class name %q", class)
		}
		inner := s[i+1 : len(s)-1]
		// No argument value legitimately contains unpaired parentheses.
		if !BalancedParens(inner) {
			return "", Args{}, fmt.Errorf("unbalanced parentheses in %q", s)
		}
		var items []string
		if strings.TrimSpace(inner) != "" {
			items = SplitTopLevel(inner, ",")
		}
		return class, ParseArgs(items), nil
	}
	if !isIdent(s) {
		return "", Args{}, fmt.Errorf("bad class reference %q", s)
	}
	return s, ParseArgs(nil), nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// StripComments removes // line comments and /* */ block comments. It is
// exported for the scenario-file loader, which shares the grammar's
// lexical conventions.
func StripComments(s string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); {
		if strings.HasPrefix(s[i:], "//") {
			j := strings.IndexByte(s[i:], '\n')
			if j < 0 {
				break
			}
			i += j
			continue
		}
		if strings.HasPrefix(s[i:], "/*") {
			j := strings.Index(s[i+2:], "*/")
			if j < 0 {
				return "", fmt.Errorf("click: unterminated block comment")
			}
			// Keep the comment's newlines so downstream parsers can report
			// line numbers that match the original text.
			for _, c := range []byte(s[i : i+2+j+2]) {
				if c == '\n' {
					b.WriteByte(c)
				}
			}
			i += 2 + j + 2
			continue
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String(), nil
}

// SplitTopLevel splits s on sep occurrences that are not nested inside
// parentheses.
func SplitTopLevel(s, sep string) []string {
	var parts []string
	depth := 0
	start := 0
	for i := 0; i < len(s); {
		switch {
		case s[i] == '(':
			depth++
			i++
		case s[i] == ')':
			depth--
			i++
		case depth == 0 && strings.HasPrefix(s[i:], sep):
			parts = append(parts, s[start:i])
			i += len(sep)
			start = i
		default:
			i++
		}
	}
	parts = append(parts, s[start:])
	return parts
}

// Statement is one top-level statement of a comment-stripped
// configuration, with the position parser error messages report.
type Statement struct {
	Text string // statement text, surrounding whitespace trimmed
	No   int    // 1-based statement number (blank statements counted)
	Line int    // 1-based line of the statement's first non-blank byte
}

// Statements splits comment-stripped text on top-level semicolons and
// tracks each statement's number and starting line; blank statements
// are dropped. It relies on SplitTopLevel's losslessness, so the line
// numbers match the original text as long as comment stripping (and any
// block removal a caller performed) preserved newlines.
func Statements(s string) []Statement {
	var out []Statement
	offset := 0
	for i, raw := range SplitTopLevel(s, ";") {
		start := offset + (len(raw) - len(strings.TrimLeft(raw, " \t\r\n")))
		offset += len(raw) + 1
		t := strings.TrimSpace(raw)
		if t == "" {
			continue
		}
		out = append(out, Statement{Text: t, No: i + 1, Line: 1 + strings.Count(s[:start], "\n")})
	}
	return out
}

// BalancedParens reports whether s's parentheses pair up without ever
// closing below depth zero. Unbalanced text can never form a valid
// configuration, and it would shift top-level separator positions on a
// re-parse of rendered output, so parsers reject it up front.
func BalancedParens(s string) bool {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		}
		if depth < 0 {
			return false
		}
	}
	return depth == 0
}

// CutTopLevel is strings.Cut restricted to top-level (unparenthesised)
// occurrences of sep.
func CutTopLevel(s, sep string) (before, after string, found bool) {
	depth := 0
	for i := 0; i+len(sep) <= len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		}
		if depth == 0 && strings.HasPrefix(s[i:], sep) {
			return s[:i], s[i+len(sep):], true
		}
	}
	return s, "", false
}
