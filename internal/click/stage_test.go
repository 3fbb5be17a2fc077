package click

import (
	"reflect"
	"strings"
	"testing"

	"pktpredict/internal/mem"
)

// stageConfig is src -> a -> cls; cls[0] -> b -> tail; cls[1] -> drop,
// a graph with a branching middle for stage-cut tests, followed by cut —
// its `stage N:` statements.
func stageConfig(count int, cut string) string {
	return `
		src :: SeqSource(COUNT ` + itoa(count) + `);
		a :: TElem;
		cls :: TCls;
		b :: TElem;
		tail :: TElem;
		drop :: TDrop;
		src -> a -> cls;
		cls[0] -> b -> tail;
		cls[1] -> drop;
	` + cut
}

// stagePipeline builds stageConfig(count, cut).
func stagePipeline(t *testing.T, count int, cut string) *Pipeline {
	t.Helper()
	pl, err := ParseConfig(testEnv(), "staged", stageConfig(count, cut))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	return pl
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestAssignStagesInheritsDownstream: a `stage N:` statement assigns the
// elements it names; every other node inherits its predecessors' latest
// stage.
func TestAssignStagesInheritsDownstream(t *testing.T) {
	pl := stagePipeline(t, 1, "stage 1: b;")
	if pl.NumStages() != 2 {
		t.Fatalf("NumStages = %d, want 2", pl.NumStages())
	}
	want := map[string]int{"a": 0, "cls": 0, "drop": 0, "b": 1, "tail": 1}
	for _, n := range pl.Nodes() {
		if n.Stage != want[n.Name] {
			t.Fatalf("node %s in stage %d, want %d", n.Name, n.Stage, want[n.Name])
		}
	}
}

// TestAssignStagesValidation: a stage assignment the stage rule refuses
// fails the parse, naming what is wrong.
func TestAssignStagesValidation(t *testing.T) {
	cases := []struct {
		name    string
		cut     string
		wantSub string
	}{
		{"unknown element", "stage 1: nope;", "unknown element"},
		{"negative stage", "stage -1: b;", `cannot parse "stage -1: b"`},
		{"head not stage 0", "stage 1: a;", "stage 0"},
		{"gap in stages", "stage 2: b;", "contiguous"},
		{"backward edge", "stage 1: cls, tail; stage 0: b;", "crosses"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(stageConfig(1, tc.cut))
			if err == nil {
				t.Fatal("invalid stage assignment accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestUnstagedPipelineHasOneStage(t *testing.T) {
	pl := stagePipeline(t, 1, "")
	if pl.NumStages() != 1 {
		t.Fatalf("NumStages = %d, want 1", pl.NumStages())
	}
	if _, err := pl.StageRunner(1); err == nil {
		t.Fatal("StageRunner(1) on an unstaged pipeline succeeded")
	}
}

// TestStageRunnersHandAcrossCut drives the two runners by hand (the
// runtime drives them through a handoff ring): stage-0 walks either end
// at the local drop branch or report the stage-1 resume node; stage-1
// walks terminate.
func TestStageRunnersHandAcrossCut(t *testing.T) {
	const count = 6
	pl := stagePipeline(t, count, "stage 1: b;")
	sr0, err := pl.StageRunner(0)
	if err != nil {
		t.Fatal(err)
	}
	sr1, err := pl.StageRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	head := pl.HeadIndex()
	handed, terminal := 0, 0
	for {
		sr0.Ctx().Ops = nil
		p := pl.Source.Pull(sr0.Ctx())
		if p == nil {
			break
		}
		next, _ := sr0.Walk(p, head, false)
		if next < 0 {
			terminal++
			continue
		}
		if pl.Nodes()[next].Name != "b" {
			t.Fatalf("hand-off resumes at %s, want b", pl.Nodes()[next].Name)
		}
		handed++
		sr1.Ctx().Ops = nil
		if got, _ := sr1.Walk(p, next, false); got != -1 {
			t.Fatalf("stage-1 walk handed off again (node %d)", got)
		}
	}
	if handed == 0 || terminal == 0 {
		t.Fatalf("classifier split degenerate: handed %d, local terminals %d", handed, terminal)
	}
	// Every packet stage 0 did not hand on ended its walk there.
	if handed+terminal != count || sr0.Finished != 0 || sr0.Dropped != uint64(terminal) {
		t.Fatalf("stage-0 counters: %+v (handed %d, terminal %d of %d)", *sr0, handed, terminal, count)
	}
	if sr1.Finished != uint64(handed) || sr1.Dropped != 0 {
		t.Fatalf("stage-1 counters: finished %d dropped %d, want %d/0", sr1.Finished, sr1.Dropped, handed)
	}
	// Chain-level conservation: every packet reached exactly one terminal.
	if terminals := sr0.Finished + sr0.Dropped + sr1.Finished + sr1.Dropped; terminals != count {
		t.Fatalf("conservation: %d entered, %d terminals", count, terminals)
	}
}

// TestStageWalkHandsOffAtMostOnce: a Tee broadcasting across the cut may
// hand the packet over only once; the lost branch lands in CutDropped and
// the packet still reaches exactly one terminal.
func TestStageWalkHandsOffAtMostOnce(t *testing.T) {
	cfg := `
		src :: SeqSource(COUNT 3);
		tee :: TTee;
		x :: TElem;
		y :: TElem;
		src -> tee;
		tee[0] -> x;
		tee[1] -> y;
		stage 1: x, y;
	`
	pl, err := ParseConfig(testEnv(), "teecut", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sr0, _ := pl.StageRunner(0)
	sr1, _ := pl.StageRunner(1)
	for i := 0; i < 3; i++ {
		sr0.Ctx().Ops = nil
		p := pl.Source.Pull(sr0.Ctx())
		next, _ := sr0.Walk(p, pl.HeadIndex(), false)
		if next < 0 {
			t.Fatal("tee walk did not hand off")
		}
		if pl.Nodes()[next].Name != "x" {
			t.Fatalf("hand-off resumes at %s, want x (port-0 branch wins)", pl.Nodes()[next].Name)
		}
		if got, _ := sr1.Walk(p, next, false); got != -1 {
			t.Fatal("stage-1 walk did not terminate")
		}
	}
	if sr0.CutDropped != 3 {
		t.Fatalf("CutDropped = %d, want 3 (one lost branch per packet)", sr0.CutDropped)
	}
	// Every walk handed off, so stage 0 ended none and stage 1 all three.
	if sr0.Finished+sr0.Dropped != 0 || sr1.Finished != 3 {
		t.Fatalf("stage 0 ended %d walks, stage 1 finished %d, want 0/3", sr0.Finished+sr0.Dropped, sr1.Finished)
	}
}

// TestStageWalkCarriesFinishedAcrossCut: a branch that completes before
// the cut decides the packet's outcome even when the post-cut remainder
// drops — matching what one runner would count on the identical graph
// uncut.
func TestStageWalkCarriesFinishedAcrossCut(t *testing.T) {
	const count = 4
	cfg := `
		src :: SeqSource(COUNT ` + itoa(count) + `);
		tee :: TTee;
		wire :: TElem;
		fw :: TDrop;
		src -> tee;
		tee[0] -> wire;
		tee[1] -> fw;
		stage 1: fw;
	`
	pl, err := ParseConfig(testEnv(), "fincut", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sr0, _ := pl.StageRunner(0)
	sr1, _ := pl.StageRunner(1)
	for i := 0; i < count; i++ {
		sr0.Ctx().Ops = nil
		p := pl.Source.Pull(sr0.Ctx())
		next, fin := sr0.Walk(p, pl.HeadIndex(), false)
		if next < 0 {
			t.Fatal("walk did not hand off")
		}
		if !fin {
			t.Fatal("finished flag lost at the cut: the wire branch completed before it")
		}
		if got, _ := sr1.Walk(p, next, fin); got != -1 {
			t.Fatal("stage-1 walk did not terminate")
		}
	}
	// Every packet completed its wire branch upstream, so despite the
	// stage-1 drop the packets count finished — exactly the
	// run-to-completion outcome.
	if sr1.Finished != count || sr1.Dropped != 0 {
		t.Fatalf("stage-1 outcome: finished %d dropped %d, want %d/0", sr1.Finished, sr1.Dropped, count)
	}
}

func TestBroadcastPacketLevelOutcome(t *testing.T) {
	// One branch finishes, one drops: the packet finished. Both branches
	// dropping: the packet dropped.
	cfg := `
		src :: SeqSource(COUNT 2);
		tee :: TTee;
		a :: TDrop;
		b :: TDrop;
		src -> tee;
		tee[0] -> a;
		tee[1] -> b;
	`
	pl, err := ParseConfig(testEnv(), "alldrop", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if recv, fin, drop := runAll(t, pl); recv != 2 || drop != 2 || fin != 0 {
		t.Fatalf("all-drop tee: recv %d fin %d drop %d, want 2/0/2", recv, fin, drop)
	}
}

// TestStageStatementsCutTheGraph: a configuration's `stage N:` statements
// are the cut. Parse reads the stage count without constructing anything;
// Build constructs each element from the arena of the stage it runs in
// (the nodes carry their stage: TestAssignStagesInheritsDownstream), and
// graph surgery keeps the cut: PushFront
// lands in stage 0, InsertBefore in its new predecessors' stage.
func TestStageStatementsCutTheGraph(t *testing.T) {
	g, err := Parse(stageConfig(1, "stage 1: b;"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStages() != 2 {
		t.Fatalf("NumStages = %d, want 2", g.NumStages())
	}
	var asked []int
	env := testEnv()
	arenas := []*mem.Arena{env.Arena, mem.NewArena(1)}
	env.ArenaAt = func(s int) *mem.Arena { asked = append(asked, s); return arenas[s] }
	pl, err := g.Build(env, "cut")
	if err != nil {
		t.Fatal(err)
	}
	// Declaration order: src, a, cls, b, tail, drop.
	if want := []int{0, 0, 0, 1, 1, 0}; !reflect.DeepEqual(asked, want) {
		t.Fatalf("elements built from the arenas of stages %v, want %v", asked, want)
	}
	pl.PushFront("Front", &testElement{})
	// tail is the graph's third TElem; give it a class of its own to
	// insert before.
	nodeNamed(t, pl, "tail").class = "Tail"
	if err := pl.InsertBefore("Tail", "Ins", &testElement{}); err != nil {
		t.Fatal(err)
	}
	if got := nodeNamed(t, pl, "Front").Stage; got != 0 {
		t.Fatalf("PushFront landed in stage %d, want 0", got)
	}
	if got := nodeNamed(t, pl, "Ins").Stage; got != 1 {
		t.Fatalf("InsertBefore a stage-1 node's only successor landed in stage %d, want 1", got)
	}
}
