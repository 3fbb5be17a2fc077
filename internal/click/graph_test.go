package click

import (
	"strings"
	"testing"
)

// Test doubles for the graph engine: a source whose packets carry a
// sequence number, a fixed two-port classifier, an adaptive round-robin
// router, and a tee.

type seqSource struct {
	remaining int
	seq       int
}

func (s *seqSource) Pull(ctx *Ctx) *Packet {
	if s.remaining == 0 {
		return nil
	}
	s.remaining--
	data := make([]byte, 64)
	data[0] = byte(s.seq)
	s.seq++
	return &Packet{Data: data, Addr: 0x1000}
}

type parityClassifier struct{}

func (parityClassifier) NumOutputs() int { return 2 }
func (parityClassifier) Process(ctx *Ctx, p *Packet) Verdict {
	return Output(int(p.Data[0]) % 2)
}

type rrRouter struct{ n, next int }

func (r *rrRouter) NumOutputs() int  { return AdaptiveOutputs }
func (r *rrRouter) SetOutputs(n int) { r.n = n }
func (r *rrRouter) Process(ctx *Ctx, p *Packet) Verdict {
	port := r.next % r.n
	r.next++
	return Output(port)
}

type testTee struct{}

func (testTee) NumOutputs() int { return AdaptiveOutputs }
func (testTee) Process(ctx *Ctx, p *Packet) Verdict {
	return Broadcast
}

func init() {
	Register("SeqSource", countKeys, one, func(_ *Env, n int) (interface{}, error) {
		return &seqSource{remaining: n}, nil
	})
	bare("TCls", func() interface{} { return parityClassifier{} })
	bare("TRR", func() interface{} { return &rrRouter{} })
	bare("TTee", func() interface{} { return testTee{} })
}

// nodeNamed returns the pipeline's node of that configuration name, whose
// Dropped and Finished are the per-branch terminal counters.
func nodeNamed(t *testing.T, pl *Pipeline, name string) *Node {
	t.Helper()
	for _, n := range pl.Nodes() {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("pipeline has no node %q", name)
	return nil
}

// runAll pulls the source dry and walks each packet through a stage-0
// runner of the uncut graph, the walker EmitPacket uses. It returns the
// packets pulled and the runner's packet-level outcome: a packet finished
// when at least one of its branches completed, dropped when none did.
func runAll(t *testing.T, pl *Pipeline) (received, finished, dropped uint64) {
	t.Helper()
	sr, err := pl.StageRunner(0)
	if err != nil {
		t.Fatal(err)
	}
	for p := pl.Source.Pull(sr.Ctx()); p != nil; p = pl.Source.Pull(sr.Ctx()) {
		received++
		sr.Walk(p, pl.HeadIndex(), false)
		sr.Ctx().Ops = sr.Ctx().Ops[:0]
	}
	return received, sr.Finished, sr.Dropped
}

func TestGraphClassifierRoutesBranches(t *testing.T) {
	cfg := `
		src :: SeqSource(COUNT 4);
		cls :: TCls;
		a :: TElem;
		b :: TElem;
		src -> cls;
		cls[0] -> a;
		cls[1] -> b;
	`
	pl, err := ParseConfig(testEnv(), "g", cfg)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	recv, fin, drop := runAll(t, pl)
	if got := nodeNamed(t, pl, "a").Finished; got != 2 {
		t.Fatalf("a.finished = %d, want 2", got)
	}
	if got := nodeNamed(t, pl, "b").Finished; got != 2 {
		t.Fatalf("b.finished = %d, want 2", got)
	}
	if recv != 4 || fin != 4 || drop != 0 {
		t.Fatalf("counters: %d/%d/%d", recv, fin, drop)
	}
}

func TestGraphFanInMergesBranches(t *testing.T) {
	cfg := `
		src :: SeqSource(COUNT 4);
		cls :: TCls;
		sink :: TElem;
		src -> cls;
		cls[0] -> sink;
		cls[1] -> sink;
	`
	pl, err := ParseConfig(testEnv(), "g", cfg)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	runAll(t, pl)
	if got := nodeNamed(t, pl, "sink").Finished; got != 4 {
		t.Fatalf("sink.finished = %d, want 4 (fan-in must merge)", got)
	}
}

func TestGraphRoundRobinAdaptsToConnectedPorts(t *testing.T) {
	cfg := `
		src :: SeqSource(COUNT 6);
		rr :: TRR;
		a :: TElem; b :: TElem; c :: TElem;
		src -> rr;
		rr[0] -> a;
		rr[1] -> b;
		rr[2] -> c;
	`
	pl, err := ParseConfig(testEnv(), "g", cfg)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	runAll(t, pl)
	for _, name := range []string{"a", "b", "c"} {
		if got := nodeNamed(t, pl, name).Finished; got != 2 {
			t.Fatalf("%s.finished = %d, want 2", name, got)
		}
	}
}

func TestGraphTeeBroadcastsToAllBranches(t *testing.T) {
	cfg := `
		src :: SeqSource(COUNT 3);
		tee :: TTee;
		a :: TElem;
		b :: TDrop;
		src -> tee;
		tee[0] -> a;
		tee[1] -> b;
	`
	pl, err := ParseConfig(testEnv(), "g", cfg)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	recv, fin, drop := runAll(t, pl)
	// Every packet finishes on branch a and drops on branch b: the
	// per-branch counters separate the two fates.
	if got := nodeNamed(t, pl, "a").Finished; got != 3 {
		t.Fatalf("a.finished = %d, want 3", got)
	}
	if got := nodeNamed(t, pl, "b").Dropped; got != 3 {
		t.Fatalf("b.dropped = %d, want 3", got)
	}
	// Packet-level outcome: every packet completed on branch a, so none
	// count as dropped and received == finished + dropped holds.
	if fin != 3 || drop != 0 || recv != 3 {
		t.Fatalf("counters: recv %d fin %d drop %d", recv, fin, drop)
	}
}

func TestGraphBranching(t *testing.T) {
	cfg := `
		src :: SeqSource(COUNT 1);
		cls :: TCls;
		a :: TElem;
		b :: TElem;
		src -> cls;
		cls[0] -> a;
		cls[1] -> b;
	`
	pl, err := ParseConfig(testEnv(), "g", cfg)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if !pl.Branching() {
		t.Fatal("classifier graph must report Branching")
	}
}

func TestGraphErrorsDeterministic(t *testing.T) {
	cases := []struct {
		name, cfg, wantSub string
	}{
		{"port on non-router", `src :: SeqSource; a :: TElem; b :: TElem; src -> a; a[1] -> b;`,
			"is not a Router"},
		{"dup port same target", `src :: SeqSource; a :: TElem; src -> a; src -> a;`,
			"connected twice"},
		{"dup port two targets", `src :: SeqSource; a :: TElem; b :: TElem; src -> a; src -> b;`,
			"two downstream connections"},
		{"adaptive port gap", `src :: SeqSource; rr :: TRR; a :: TElem; src -> rr; rr[1] -> a;`,
			"contiguous"},
		{"fixed router missing port", `src :: SeqSource; cls :: TCls; a :: TElem; src -> cls; cls[0] -> a;`,
			"port 1 of \"cls\" (TCls) is not connected"},
		{"fixed router extra port", "src :: SeqSource; cls :: TCls;\na :: TElem; b :: TElem; c :: TElem;\nsrc -> cls; cls[0] -> a; cls[1] -> b; cls[2] -> c;",
			"has 2 output ports; port 2 connected"},
		{"input port nonzero", `src :: SeqSource; a :: TElem; src -> [1]a;`,
			"single input port 0"},
		{"input port on chain head", `src :: SeqSource; a :: TElem; [7]src -> a;`,
			"single input port 0"},
		{"dangling output port", `src :: SeqSource; a :: TElem; src -> a[1];`,
			"dangling output port"},
		{"bad port number", `src :: SeqSource; a :: TElem; src -> a[x];`,
			"not a port number"},
		{"port out of range", `src :: SeqSource; a :: TElem; src -> a[999];`,
			"outside [0,255]"},
		{"cycle", "src :: SeqSource;\na :: TElem;\nb :: TElem;\nsrc -> a;\na -> b;\nb -> a;",
			`cycle through "a"`},
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
			// Errors must be stable: parse again, expect the identical text.
			_, err2 := ParseConfig(testEnv(), "t", tc.cfg)
			if err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("error not deterministic: %q vs %q", err, err2)
			}
		})
	}
}

func TestPipelinePushFrontAndInsertBefore(t *testing.T) {
	src := &seqSource{remaining: 2}
	mid := &testElement{verdict: Continue}
	last := &testElement{verdict: Consume}
	pl := newPipeline("p", src, "Mid", mid, last)
	pl.nodes[1].class = "Last" // a chain of two classes

	front := &testElement{verdict: Continue}
	pl.PushFront("Front", front)
	ins := &testElement{verdict: Continue}
	if err := pl.InsertBefore("Last", "Ins", ins); err != nil {
		t.Fatal(err)
	}
	if err := pl.InsertBefore("Nope", "Ins", ins); err == nil {
		t.Fatal("InsertBefore of unknown class must error")
	}

	var classes, names []string
	for _, n := range pl.Nodes() {
		classes = append(classes, n.class)
		names = append(names, n.Name)
	}
	if got, want := strings.Join(classes, " "), "Front Mid Ins Last"; got != want {
		t.Fatalf("element order %q, want %q", got, want)
	}
	if got, want := strings.Join(names, " "), "Front Mid@1 Ins Mid@2"; got != want {
		t.Fatalf("node names %q, want %q", got, want)
	}
	_, fin, _ := runAll(t, pl)
	if front.seen != 2 || mid.seen != 2 || ins.seen != 2 || last.seen != 2 {
		t.Fatalf("element visits: %d %d %d %d", front.seen, mid.seen, ins.seen, last.seen)
	}
	if fin != 2 {
		t.Fatalf("finished = %d, want 2", fin)
	}
}

func TestGraphUnconnectedRouterlessPortDrops(t *testing.T) {
	// A plain element returning Output(1) at run time — a programming
	// error the validator cannot see — must surface as a drop, not a
	// panic.
	src := &seqSource{remaining: 1}
	rogue := &testElement{verdict: Output(1)}
	pl := newPipeline("p", src, "Rogue", rogue)
	if _, _, drop := runAll(t, pl); drop != 1 {
		t.Fatalf("dropped = %d, want 1", drop)
	}
}
