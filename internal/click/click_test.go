package click

import (
	"fmt"
	"strings"
	"testing"

	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
)

// Test doubles: a bounded source and pass/drop elements.

type testSource struct {
	remaining int
	pulled    int
}

func (s *testSource) Pull(ctx *Ctx) *Packet {
	if s.remaining == 0 {
		return nil
	}
	s.remaining--
	s.pulled++
	ctx.Compute(10, 10)
	return &Packet{Data: make([]byte, 64), Addr: 0x1000}
}

type testElement struct {
	verdict Verdict
	seen    int
}

func (e *testElement) Process(ctx *Ctx, p *Packet) Verdict {
	e.seen++
	ctx.Load(p.Addr)
	return e.verdict
}

type testRecycler struct{ recycled int }

func (r *testRecycler) Recycle(ctx *Ctx, p *Packet) { r.recycled++ }

func TestCtxFuncAttribution(t *testing.T) {
	var ctx Ctx
	fn := hw.RegisterFunc("click_test_fn")
	old := ctx.SetFunc(fn)
	ctx.Load(0x40)
	ctx.SetFunc(old)
	ctx.Load(0x80)
	if ctx.Ops[0].Func != fn || ctx.Ops[1].Func != hw.FuncOther {
		t.Fatalf("attribution wrong: %+v", ctx.Ops)
	}
}

func TestCtxLoadBytesSpansLines(t *testing.T) {
	var ctx Ctx
	ctx.LoadBytes(0x3f, 2) // straddles a line boundary
	if len(ctx.Ops) != 2 {
		t.Fatalf("LoadBytes across boundary emitted %d ops, want 2", len(ctx.Ops))
	}
	ctx.Ops = ctx.Ops[:0]
	ctx.LoadBytes(0x00, 64)
	if len(ctx.Ops) != 1 {
		t.Fatalf("LoadBytes within one line emitted %d ops, want 1", len(ctx.Ops))
	}
	ctx.Ops = ctx.Ops[:0]
	ctx.LoadBytes(0x00, 0)
	if len(ctx.Ops) != 0 {
		t.Fatal("LoadBytes of 0 bytes must emit nothing")
	}
}

func TestCtxComputeSkipsEmpty(t *testing.T) {
	var ctx Ctx
	ctx.Compute(0, 0)
	if len(ctx.Ops) != 0 {
		t.Fatal("empty compute must emit nothing")
	}
}

func TestPipelineRunsChain(t *testing.T) {
	src := &testSource{remaining: 3}
	e1 := &testElement{verdict: Continue}
	e2 := &testElement{verdict: Continue}
	pl := newPipeline("p", src, "T", e1, e2)

	var ops []hw.Op
	for {
		ops = pl.EmitPacket(ops[:0])
		if len(ops) == 0 {
			break
		}
	}
	if e1.seen != 3 || e2.seen != 3 {
		t.Fatalf("elements saw %d/%d packets, want 3/3", e1.seen, e2.seen)
	}
	if a, b := pl.Nodes()[0], pl.Nodes()[1]; a.Finished+a.Dropped+b.Dropped != 0 || b.Finished != 3 {
		t.Fatalf("terminals: A %d/%d, B %d/%d finished/dropped, want 0/0 and 3/0", a.Finished, a.Dropped, b.Finished, b.Dropped)
	}
}

func TestPipelineDropStopsChain(t *testing.T) {
	src := &testSource{remaining: 2}
	e1 := &testElement{verdict: Drop}
	e2 := &testElement{verdict: Continue}
	pl := newPipeline("p", src, "T", e1, e2)
	for len(pl.EmitPacket(nil)) > 0 {
	}
	if e2.seen != 0 {
		t.Fatal("element after Drop must not run")
	}
	if n := pl.Nodes()[0]; n.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2", n.Dropped)
	}
}

func TestPipelineConsumeCountsFinished(t *testing.T) {
	src := &testSource{remaining: 1}
	e1 := &testElement{verdict: Consume}
	pl := newPipeline("p", src, "T", e1)
	pl.EmitPacket(nil)
	if n := pl.Nodes()[0]; n.Finished != 1 {
		t.Fatalf("finished = %d, want 1", n.Finished)
	}
}

func TestPipelineRecycles(t *testing.T) {
	rec := &testRecycler{}
	src := &testSource{remaining: 2}
	pl := newPipeline("p", SourceFunc(func(ctx *Ctx) *Packet {
		p := src.Pull(ctx)
		if p != nil {
			p.Recycler = rec
		}
		return p
	}), "T", &testElement{verdict: Drop})
	for len(pl.EmitPacket(nil)) > 0 {
	}
	if rec.recycled != 2 {
		t.Fatalf("recycled = %d, want 2", rec.recycled)
	}
}

// newPipeline assembles a linear chain of elements of one class, named
// class@1, class@2, … as a configuration's inline chain names them, fed by
// src: a graph over test doubles that no class registers.
func newPipeline(name string, src Source, class string, elements ...Element) *Pipeline {
	pl := &Pipeline{Name: name, Source: src, numStages: 1}
	for i, el := range elements {
		n := &Node{Name: fmt.Sprintf("%s@%d", class, i+1), El: el, class: class}
		if pl.head == nil {
			pl.head = n
		} else {
			pl.nodes[i-1].connect(0, n)
		}
		pl.nodes = append(pl.nodes, n)
	}
	return pl
}

// SourceFunc adapts a function to Source for tests.
type SourceFunc func(ctx *Ctx) *Packet

func (f SourceFunc) Pull(ctx *Ctx) *Packet { return f(ctx) }

func TestPipelineStats(t *testing.T) {
	src := &testSource{remaining: 1}
	el := &testElement{verdict: Continue}
	pl := newPipeline("p", src, "T", el)
	if recv, fin, drop := runAll(t, pl); recv != 1 || fin != 1 || drop != 0 {
		t.Fatalf("received/finished/dropped = %d/%d/%d, want 1/1/0", recv, fin, drop)
	}
	if n := pl.Nodes()[0]; n.El != el || n.Finished != 1 || n.Dropped != 0 || el.seen != 1 {
		t.Fatalf("node %s: finished %d dropped %d, element saw %d", n.Name, n.Finished, n.Dropped, el.seen)
	}
}

func TestPipelineImplementsPacketSource(t *testing.T) {
	var _ hw.PacketSource = (*Pipeline)(nil)
}

// --- configuration parser ---

func testEnv() *Env { return &Env{Arena: mem.NewArena(0), Seed: 1} }

// countKeys is the one row the test sources declare.
var countKeys = []Key[int]{Int("COUNT", "[0,)", func(n *int) *int { return n })}

func one(*Env) int { return 1 }

// bare registers a test class that takes no arguments.
func bare(class string, build func() interface{}) {
	Register(class, nil, nil, func(*Env, struct{}) (interface{}, error) { return build(), nil })
}

func init() {
	Register("TSource", countKeys, one, func(_ *Env, n int) (interface{}, error) {
		return &testSource{remaining: n}, nil
	})
	bare("TElem", func() interface{} { return &testElement{verdict: Continue} })
	bare("TDrop", func() interface{} { return &testElement{verdict: Drop} })
}

func TestParseConfigDeclared(t *testing.T) {
	cfg := `
		// a comment
		src :: TSource(COUNT 2);
		a :: TElem; /* block
		comment */
		b :: TElem;
		src -> a -> b;
	`
	pl, err := ParseConfig(testEnv(), "test", cfg)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if len(pl.Nodes()) != 2 {
		t.Fatalf("elements = %d, want 2", len(pl.Nodes()))
	}
	n := 0
	for len(pl.EmitPacket(nil)) > 0 {
		n++
	}
	if n != 2 {
		t.Fatalf("packets = %d, want 2 (COUNT arg not honoured?)", n)
	}
}

func TestParseConfigInlineAnonymous(t *testing.T) {
	pl, err := ParseConfig(testEnv(), "t", `TSource(COUNT 1) -> TElem -> TDrop;`)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if len(pl.Nodes()) != 2 {
		t.Fatalf("elements = %d, want 2", len(pl.Nodes()))
	}
	if _, _, drop := runAll(t, pl); drop != 1 {
		t.Fatalf("dropped = %d, want 1", drop)
	}
}

func TestParseConfigMultiStatementChain(t *testing.T) {
	cfg := `
		src :: TSource(COUNT 1);
		mid :: TElem;
		src -> mid;
		mid -> TElem;
	`
	pl, err := ParseConfig(testEnv(), "t", cfg)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if len(pl.Nodes()) != 2 {
		t.Fatalf("elements = %d, want 2", len(pl.Nodes()))
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []struct {
		name, cfg, wantSub string
	}{
		{"unknown class", `src :: Nonexistent; src -> TElem;`, "unknown element"},
		{"undeclared ref", `src :: TSource; src -> missing_element_1;`, "unknown element"},
		{"double decl", `a :: TElem; a :: TElem; TSource -> a;`, "declared twice"},
		{"branching", "src :: TSource;\na :: TElem;\nb :: TElem;\nsrc -> a;\nsrc -> b;", "two downstream"},
		{"head not source", `TElem -> TDrop;`, "not a packet source"},
		{"two heads", `TSource -> TElem; TSource -> TDrop;`, "multiple chain heads"},
		{"orphan is second head", `src :: TSource; orphan :: TElem; x :: TElem; src -> x;`, "multiple chain heads"},
		{"disconnected cycle", "src :: TSource;\na :: TElem;\nb :: TElem;\na -> b;\nb -> a;\nsrc -> TElem;", `cycle through "a"`},
		{"headless cycle", `a :: TElem; b :: TElem; a -> b; b -> a;`, `cycle through "a"`},
		{"empty", "// nothing\n", "declares no elements"},
		{"unterminated comment", `/* oops`, "unterminated"},
		{"dangling arrow", `src :: TSource; src -> ;`, "empty element"},
		{"source midchain", `TSource -> TSource;`, "not a processing element"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseConfig(testEnv(), "t", tc.cfg)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestParseArgs(t *testing.T) {
	a := ParseArgs([]string{"64", "routes 128000", " SEED 7 ", ""})
	if len(a.Positional) != 1 || a.Positional[0] != "64" {
		t.Fatalf("positional = %v", a.Positional)
	}
	if len(a.Keyword) != 2 || a.Keyword["ROUTES"] != "128000" || a.Keyword["SEED"] != "7" {
		t.Fatalf("keyword = %v", a.Keyword)
	}
}

func TestVerdictString(t *testing.T) {
	if Continue.String() != "continue" || Drop.String() != "drop" || Consume.String() != "consume" {
		t.Fatal("verdict strings wrong")
	}
	if Output(9).String() != "output(9)" || Output(0) != Continue {
		t.Fatal("output verdicts wrong")
	}
	if Broadcast.String() != "broadcast" {
		t.Fatal("broadcast verdict renders wrong")
	}
	if Verdict(-9).String() != "invalid" {
		t.Fatal("unknown verdict must render invalid")
	}
}
