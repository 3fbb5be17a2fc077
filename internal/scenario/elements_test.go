package scenario

import (
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/runtime"
)

// badElementArgs are graph bodies whose one faulty element argument used
// to be ignored, truncated or fatal: the first five ran silently on the
// class's defaults, the next six panicked on a build goroutine and killed
// the process, DELAY truncated through uint32 and the last four ran.
// They are regression seeds of FuzzParseScenario and, as bare graph text,
// of click's FuzzParseConfig.
var badElementArgs = []struct{ graph, class, key, also string }{
	{"src :: FromDevice; src -> RadixIPLookup(ROUTE 100) -> ToDevice;", "RadixIPLookup", "ROUTE", "known keys: ROUTES SEED"},
	{"src :: FromDevice; src -> NetFlow(ENTRIS 64) -> ToDevice;", "NetFlow", "ENTRIS", "known keys: ENTRIES"},
	{"src :: FromDevice; src -> NetFlow(64) -> ToDevice;", "NetFlow", `"64"`, "known keys: ENTRIES"},
	{"src :: FromDevice; src -> IPRewriter(ENTRIES -1) -> ToDevice;", "IPRewriter", "ENTRIES", "known keys: CAPACITY EXTIP"},
	{"src :: FromDevice; src -> ToDevice(FOO 1);", "ToDevice", "FOO", "known keys: RING"},
	{"src :: FromDevice; src -> NetFlow(ENTRIES -5) -> ToDevice;", "NetFlow", "ENTRIES -5", "[1,)"},
	{"src :: FromDevice; src -> NetFlow(ENTRIES 0) -> ToDevice;", "NetFlow", "ENTRIES 0", "[1,)"},
	{"src :: FromDevice; src -> ToDevice(RING -4);", "ToDevice", "RING -4", "[0,)"},
	{"src :: FromDevice(BUFFERS -3); src -> ToDevice;", "FromDevice", "BUFFERS -3", "[0,)"},
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
}

// oneWorkerScenario wraps a graph body as a scenario file running it on
// one worker.
func oneWorkerScenario(graph string) string {
	return "s :: Scenario(NAME g);\ngraph G {\n" + graph + "\n}\ng :: Flow(GRAPH G);\n"
}

// TestBadElementArgumentsAreErrors builds every entry the way dataplane
// -config does — Parse → ConfigOn → NewRuntime — and wants an error
// naming the class and the key (and, for an unknown key, the known ones):
// never a panic, never a runtime built on defaults the file did not ask
// for.
func TestBadElementArgumentsAreErrors(t *testing.T) {
	for _, tc := range badElementArgs {
		t.Run(tc.class+"/"+tc.key, func(t *testing.T) {
			s, err := Parse(oneWorkerScenario(tc.graph))
			if err != nil {
				t.Fatalf("the scenario grammar does not read element arguments: %v", err)
			}
			cfg, err := s.ConfigOn(testCfg(), apps.Small())
			if err == nil {
				_, err = runtime.NewRuntime(cfg)
			}
			if err == nil {
				t.Fatal("built a runtime")
			}
			for _, want := range []string{tc.class + ": ", tc.key, tc.also} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not contain %q", err, want)
				}
			}
		})
	}
}
