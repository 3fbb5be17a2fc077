package scenario

import (
	"reflect"
	"testing"
)

// FuzzParseScenario feeds arbitrary text to the scenario parser, which
// must reject or accept it without panicking — scenario files are user
// input, and sweeps author them programmatically. For every accepted
// input the parser must also round-trip: Render then Parse reproduces
// the identical structure (platform block included), which is the
// contract the sweep harness and the shipped-file tests rely on.
func FuzzParseScenario(f *testing.F) {
	seeds := []string{
		"scenario :: Scenario(NAME s);\nmon :: Flow(TYPE MON);",
		"scenario :: Scenario(NAME s, RING 256, ADMISSION true, PLACE 0 s1:1);\nmon :: Flow(TYPE MON, WORKERS 2, RATE_FRACTION 0.7);",
		// Platform blocks: empty, partial, full, and malformed.
		"scenario :: Scenario(NAME s);\nplatform :: Platform();\nmon :: Flow(TYPE MON);",
		"scenario :: Scenario(NAME s);\nplatform :: Platform(L3_BYTES 524288);\nmon :: Flow(TYPE MON);",
		fullPlatformScenario,
		"scenario :: Scenario(NAME s);\nplatform :: Platform(SOCKETS 0);\nmon :: Flow(TYPE MON);",
		"scenario :: Scenario(NAME s);\nplatform :: Platform(WIDGETS 7);\nmon :: Flow(TYPE MON);",
		"scenario :: Scenario(NAME s);\nplatform :: Platform(L3_POLICY RANDOM, INCLUSIVE_L3 maybe);\nmon :: Flow(TYPE MON);",
		"platform :: Platform(SOCKETS 2)",
		"scenario :: Scenario(NAME s);\nplatform :: Platform(SOCKETS 2);\nplatform2 :: Platform(SOCKETS 4);\nmon :: Flow(TYPE MON);",
		// Graph blocks with stage declarations.
		"scenario :: Scenario(NAME s);\ngraph G {\nsrc :: FromDevice(SIZE 64);\nsrc -> ToDevice;\nstage 1: ToDevice;\n}\ng :: Flow(GRAPH G);",
		"scenario :: Scenario(NAME s);\ngraph G {",
		// IDS detector chains: seeded signature sets, entropy thresholds,
		// ban-table sizing, payload-shaping source keys, staged BanTable.
		"scenario :: Scenario(NAME s);\ngraph IDS {\nsrc :: FromDevice(SIZE 512, SIG_HIT 0.06, SIG_SEED 11, LOW_ENTROPY 0.5, LOW_ENTROPY_BITS 2);\nsig :: SignatureClassifier(SIG_SEED 11, PATTERNS 16);\nent :: EntropyGate(THRESHOLD 6.5, WINDOW 512);\nbans :: BanTable(ENTRIES 16384);\nsrc -> sig;\nsig[0] -> ToDevice;\nsig[1] -> ent;\nent[0] -> ToDevice;\nent[1] -> bans;\nbans[0] -> ToDevice;\nbans[1] -> Discard;\n}\nids :: Flow(GRAPH IDS, WORKERS 2);",
		"scenario :: Scenario(NAME s);\ngraph IDS {\nsrc :: FromDevice(SIG_HIT 0.02, SIG_SHIFT 0.6, SIG_SHIFT_AFTER 4000);\nsig :: SignatureClassifier(PATTERNS 2, SIG_SEED 5);\nbans :: BanTable(ENTRIES 4096);\nsrc -> sig;\nsig[0] -> ToDevice;\nsig[1] -> bans;\nbans[0] -> ToDevice;\nbans[1] -> Discard;\nstage 1: bans;\n}\nids :: Flow(GRAPH IDS, MIGRATE_STATE true);",
		"scenario :: Scenario(NAME s);\ngraph G {\nsig :: SignatureClassifier(PATTERNS 0);\nent :: EntropyGate(THRESHOLD 99, WINDOW -5);\nbans :: BanTable(ENTRIES 0);\n}\ng :: Flow(GRAPH G);",
		"// comment\n/* block */\nscenario :: Scenario(NAME s);\nmon :: Flow(TYPE MON);",
		// Undeclared arguments: misspelled keys, keys of another class,
		// stray positionals — all rejected, none silently dropped.
		"scenario :: Scenario(NAME s, DROP_TRESHOLD 0.05, BATCHH 9);\nmon :: Flow(TYPE MON, WORKER 3, RATE_FRACTON 0.5);",
		"scenario :: Scenario(NAME s, ADMISSION);\nmon :: Flow(MON);",
		// Out-of-range numbers: RING -5 used to panic on a build goroutine.
		"s :: Scenario(RING -5);\nmon :: Flow(TYPE MON, RATE -5, PACKET_SIZE -1);",
		// Every Scenario and Flow key at once; TYPE naming a graph.
		"scenario :: Scenario(NAME s, RING 64, BATCH 4, ADMISSION true, DROP_THRESHOLD 0.05, MIGRATE_STATE 4096, MIN_CORES_PER_SOCKET 2, MIN_SOCKETS 1, FIT 4, SYN_REGION_FRACTION 0.5, PLACE 0 s1:1);\ngraph G { src :: FromDevice; src -> ToDevice; }\ng :: Flow(TYPE G, WORKERS 2, RATE 1e6, RATE_FRACTION 0.5, BURST_ON 2, BURST_OFF 3, CONTROL true, SYN_COMPUTE 7, PACKET_SIZE 128, SLO_P99_US 250);\nfw :: Flow(TYPE fw, HIDDEN_TRIGGER 2000);",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// Element arguments the class's key table refuses (elements_test.go).
	for _, tc := range badElementArgs {
		f.Add(oneWorkerScenario(tc.graph))
	}
	// Graphs whose shape or stage statements fail the load.
	for _, tc := range badGraphs {
		f.Add(oneWorkerScenario(tc.body))
	}
	// ToDevice takes no arguments, so a RING argument, negative or past
	// any bound, is an unknown key: refused, never a panic.
	f.Add(oneWorkerScenario("src :: FromDevice; src -> ToDevice(RING -4);"))
	f.Add(oneWorkerScenario("src :: FromDevice;\nsrc -> ToDevice(RING 4000000000);"))
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		s2, err := Parse(s.Render())
		if err != nil {
			t.Fatalf("accepted input renders unparseable: %v\n--- input ---\n%s\n--- rendered ---\n%s", err, text, s.Render())
		}
		if s.Name != "" && !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip diverges\n--- input ---\n%s\n got %+v\nwant %+v", text, s2, s)
		}
	})
}
