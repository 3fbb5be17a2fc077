package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// badElementArgs are graph bodies whose one faulty element argument used
// to be ignored, truncated or fatal: the first five ran silently on the
// class's defaults, the next five panicked on a build goroutine and killed
// the process, DELAY truncated through uint32 and the last four ran.
// They are regression seeds of FuzzParseScenario and, as bare graph text,
// of click's FuzzParseConfig.
var badElementArgs = []struct{ graph, class, key, also string }{
	{"src :: FromDevice; src -> RadixIPLookup(ROUTE 100) -> ToDevice;", "RadixIPLookup", "ROUTE", "known keys: ROUTES SEED"},
	{"src :: FromDevice; src -> NetFlow(ENTRIS 64) -> ToDevice;", "NetFlow", "ENTRIS", "known keys: ENTRIES"},
	{"src :: FromDevice; src -> NetFlow(64) -> ToDevice;", "NetFlow", `"64"`, "known keys: ENTRIES"},
	{"src :: FromDevice; src -> IPRewriter(ENTRIES -1) -> ToDevice;", "IPRewriter", "ENTRIES", "known keys: CAPACITY EXTIP"},
	{"src :: FromDevice; src -> ToDevice(FOO 1);", "ToDevice", "FOO", "ToDevice takes no arguments"},
	{"src :: FromDevice; src -> NetFlow(ENTRIES -5) -> ToDevice;", "NetFlow", "ENTRIES -5", "[1,)"},
	{"src :: FromDevice; src -> NetFlow(ENTRIES 0) -> ToDevice;", "NetFlow", "ENTRIES 0", "[1,)"},
	{"src :: FromDevice(BUFFERS -3); src -> ToDevice;", "FromDevice", "BUFFERS -3", "[0,1048576]"},
	{"src :: FromDevice; src -> RedundancyElim(STORE -1) -> ToDevice;", "RedundancyElim", "STORE -1", "[1024,)"},
	{"src :: FromDevice; src -> Syn(REGION -4096) -> ToDevice;", "Syn", "REGION -4096", "[64,)"},
	{"src :: FromDevice; src -> Control(DELAY 5000000000) -> ToDevice;", "Control", "DELAY 5000000000", "[0,4294967295]"},
	{"src :: FromDevice(FLOWS -64); src -> ToDevice;", "FromDevice", "FLOWS -64", "[0,)"},
	{"src :: FromDevice; src -> AESEncrypt(OUTBUFS -1) -> ToDevice;", "AESEncrypt", "OUTBUFS -1", "[0,)"},
	{"src :: FromDevice; src -> Syn(ACCESSES -1) -> ToDevice;", "Syn", "ACCESSES -1", "[0,)"},
	{"src :: FromDevice; src -> EntropyGate(WINDOW -8) -> ToDevice;", "EntropyGate", "WINDOW -8", "[0,)"},
	// The same shape one level further: arguments of a class that takes
	// none, and values inside a gap of a two-interval row.
	{"src :: FromDevice; src -> Discard(FOO 1);", "Discard", "FOO", "Discard takes no arguments"},
	{"src :: FromDevice; src -> RedundancyElim(STORE 512) -> ToDevice;", "RedundancyElim", "STORE 512", "[0,0]|[1024,)"},
	{"src :: FromDevice; src -> Syn(REGION 32) -> ToDevice;", "Syn", "REGION 32", "[0,0]|[64,)"},
	{"src :: FromDevice; t :: Tee(-1); src -> t; t[0] -> ToDevice;", "Tee", "OUTPUTS -1", "[0,)"},
	// A key the runtime's receive path never honoured: the source batches
	// at the scenario's BATCH.
	{"src :: FromDevice(SIZE 64, BATCH 32); src -> ToDevice;", "FromDevice", "unknown key BATCH", "known keys: SIZE SEED"},
}

// oneWorkerScenario wraps a graph body as a scenario file running it on
// one worker.
func oneWorkerScenario(graph string) string {
	return "s :: Scenario(NAME g);\ngraph G {\n" + graph + "\n}\ng :: Flow(GRAPH G);\n"
}

// TestBadElementArgumentsAreErrors loads every entry the way dataplane
// -config does and wants Parse itself — a graph is checked where it is
// loaded, before anything is built — to return an error naming the graph,
// the class and the key (and, for an unknown key, the known ones): never
// a panic, never a runtime built on defaults the file did not ask for.
func TestBadElementArgumentsAreErrors(t *testing.T) {
	for _, tc := range badElementArgs {
		t.Run(tc.class+"/"+tc.key, func(t *testing.T) {
			_, err := Parse(oneWorkerScenario(tc.graph))
			if err == nil {
				t.Fatal("parsed")
			}
			for _, want := range []string{"graph G: ", tc.class + ": ", tc.key, tc.also, "(line 3)"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not contain %q", err, want)
				}
			}
		})
	}
}

// badGraphs are graph bodies a file must not load with, each faulty at a
// known line of the body: what a graph's shape, classes, arguments and
// stage statements can get wrong without an element being constructed.
// They are regression seeds of FuzzParseScenario too.
var badGraphs = []struct {
	name, body, want string
	line             int // in the body, 1-based
}{
	{"unknown class", "src :: FromDevice;\nsrc -> Nope -> ToDevice;", `unknown element class "Nope"`, 2},
	{"misspelled key", "src :: FromDevice;\nnf :: NetFlow(ENTRIS 64);\nsrc -> nf -> ToDevice;", "NetFlow: unknown key ENTRIS (known keys: ENTRIES)", 2},
	{"value outside its interval", "src :: FromDevice;\n\nsrc -> NetFlow(ENTRIES -5)\n    -> ToDevice;", "NetFlow: ENTRIES -5 outside [1,)", 3},
	{"cycle", "src :: FromDevice;\na :: Counter;\nb :: Counter;\nsrc -> a;\na -> b;\nb -> a;", `cycle through "a"`, 2},
	{"undeclared reference", "src :: FromDevice;\nsrc -> later;\nlater :: Counter;\nlater -> ToDevice;", `undeclared element "later"`, 2},
	{"unconnected element", "src :: FromDevice;\nsrc -> ToDevice;\norphan :: Counter;", `multiple chain heads ("src" and "orphan")`, 3},
	{"two heads", "a :: FromDevice;\nb :: FromDevice;\na -> ToDevice;\nb -> Discard;", `multiple chain heads ("a" and "b")`, 2},
	{"stage names a missing element", "src :: FromDevice;\nsrc -> Counter -> ToDevice;\nstage 1: nope;", `unknown element "nope"`, 3},
	{"element in two stages", "src :: FromDevice;\nc :: Counter;\nsrc -> CheckIPHeader -> c -> ToDevice;\nstage 1: c;\nstage 2: c;", `"c" assigned to two stages`, 5},
	{"stage 2 without stage 1", "src :: FromDevice;\nc :: Counter;\nsrc -> CheckIPHeader -> c -> ToDevice;\nstage 2: c;", "stage 1 is empty", 4},
	{"head outside stage 0", "src :: FromDevice;\nc :: Counter;\nsrc -> c -> ToDevice;\nstage 1: c;", `head element "c" must be in stage 0`, 4},
	{"backward edge across a cut", "src :: FromDevice;\na :: Counter;\nb :: Counter;\nsrc -> CheckIPHeader -> a -> b -> ToDevice;\nstage 1: a;\nstage 0: b;", "edge a -> b crosses from stage 1 to stage 0", 6},
	// A pool the host could not hold: 4e9 buffers of 1 536 bytes
	// exhausted the simulated arena on a build goroutine and killed the
	// process; 5e7 asked the host for 76 GB.
	{"pool past its bound", "src :: FromDevice(BUFFERS 4000000000,\n    SIZE 1500);\nsrc -> ToDevice;", "FromDevice: BUFFERS 4000000000 outside [0,1048576]", 1},
	{"edge skipping a stage", "src :: FromDevice;\nt :: Tee;\nj :: Counter;\nz :: Counter;\nsrc -> t;\nt[0] -> z;\nt[1] -> Counter -> j -> z -> ToDevice;\nstage 1: Counter@1;\nstage 2: j;", "edge t -> z crosses from stage 0 to stage 2", 4},
}

// TestBadGraphsFailAtParse: a graph is checked where it is loaded. Every
// entry is rejected by Parse itself — not by Config, not on a build
// goroutine of NewRuntime after the tries are built — with the graph's
// name and the line of the file (not of the block) the fault is on.
func TestBadGraphsFailAtParse(t *testing.T) {
	const head = "s :: Scenario(NAME g);\n/* two lines\n   of comment */\ngraph G {\n"
	for _, tc := range badGraphs {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(head + tc.body + "\n}\ng :: Flow(GRAPH G);\n")
			if err == nil {
				t.Fatal("parsed")
			}
			for _, want := range []string{"graph G: ", tc.want, fmt.Sprintf("(line %d)", 4+tc.line)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not contain %q", err, want)
				}
			}
		})
	}
}
