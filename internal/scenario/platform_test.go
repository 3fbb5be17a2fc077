package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/click"
	"pktpredict/internal/hw"
)

// fullPlatformScenario exercises every Platform(...) key at once.
const fullPlatformScenario = `
scenario :: Scenario(NAME plat, MIN_CORES_PER_SOCKET 2);

platform :: Platform(SOCKETS 4, CORES_PER_SOCKET 2, CLOCK_HZ 2.2e9,
                     L1_BYTES 8192, L1_WAYS 2, L2_BYTES 65536, L2_WAYS 4,
                     L3_BYTES 2097152, L3_WAYS 8, L3_POLICY RANDOM,
                     INCLUSIVE_L3 false, LINE_BYTES 64,
                     L1_CYCLES 2, L2_CYCLES 10, L3_CYCLES 35, DRAM_CYCLES 150,
                     MEM_CYCLES 6, QPI_CYCLES 50, QPI_SERVICE 7, STREAM_MLP 8);

mon :: Flow(TYPE MON);
`

// TestPlatformRoundTripConfig is the platform-block round-trip contract:
// a rendered scenario re-parses to a structurally identical Scenario,
// and — the part that matters to the machine — both apply to the same
// base hw.Config with deep-equal results.
func TestPlatformRoundTripConfig(t *testing.T) {
	s1, err := Parse(fullPlatformScenario)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(s1.Render())
	if err != nil {
		t.Fatalf("re-parse of rendered scenario failed: %v\n--- rendered ---\n%s", err, s1.Render())
	}
	s2.Name = s1.Name // NAME is set; keep the comparison honest anyway
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("round trip diverges:\n got %+v\nwant %+v\n--- rendered ---\n%s", s2, s1, s1.Render())
	}
	// The LINE_BYTES assertion must survive a re-render: its whole point
	// is to fail loudly on a build with different line geometry.
	if !strings.Contains(s1.Render(), "LINE_BYTES 64") {
		t.Fatalf("Render dropped the LINE_BYTES assertion:\n%s", s1.Render())
	}

	base := testCfg()
	c1, err := s1.Platform.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s2.Platform.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("rendered platform block applies differently:\n got %+v\nwant %+v", c2, c1)
	}

	want := hw.Config{
		Sockets: 4, CoresPerSocket: 2, ClockHz: 2.2e9,
		L1D:      hw.CacheGeom{SizeBytes: 8192, Ways: 2},
		L2:       hw.CacheGeom{SizeBytes: 65536, Ways: 4},
		L3:       hw.CacheGeom{SizeBytes: 2097152, Ways: 8},
		L3Policy: hw.ReplaceRandom, InclusiveL3: false,
		L1Latency: 2, L2Latency: 10, L3Latency: 35, DRAMLatency: 150,
		MemCtrlService: 6, QPILatency: 50, QPIService: 7, StreamMLP: 8,
	}
	if c1 != want {
		t.Fatalf("full platform block did not override every field:\n got %+v\nwant %+v", c1, want)
	}
}

// TestPlatformPartialOverride: a block overrides only the keys it names.
func TestPlatformPartialOverride(t *testing.T) {
	s, err := Parse(`
scenario :: Scenario(NAME p);
platform :: Platform(L3_BYTES 524288);
mon :: Flow(TYPE MON);
`)
	if err != nil {
		t.Fatal(err)
	}
	base := testCfg()
	got, err := s.Platform.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	want := base
	want.L3.SizeBytes = 524288
	if got != want {
		t.Fatalf("partial override: got %+v, want %+v", got, want)
	}
}

// TestPlatformPrecedence: Config layers the platform, lowest first —
// base, the file's block, then each over layer in order (a sweep
// variant, then -platform) — and a layer overrides only the keys it
// names, so each key reads the highest layer that names it.
func TestPlatformPrecedence(t *testing.T) {
	s, err := Parse(`
scenario :: Scenario(NAME p);
platform :: Platform(SOCKETS 4, QPI_CYCLES 50, DRAM_CYCLES 150);
mon :: Flow(TYPE MON);
`)
	if err != nil {
		t.Fatal(err)
	}
	variant, err := ParsePlatformArgs("platform v", click.ParseArgs([]string{"SOCKETS 3", "QPI_CYCLES 60", "MEM_CYCLES 7"}))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := ParseOverrides("SOCKETS 2, MEM_CYCLES 9, L2_CYCLES 11")
	if err != nil {
		t.Fatal(err)
	}
	base := testCfg()
	rc, err := s.Config(base, apps.Small(), variant, cli)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rc.Cfg
	for _, c := range []struct {
		key       string
		got, want uint64
	}{
		{"L1_CYCLES: base (no layer names it)", cfg.L1Latency, base.L1Latency},
		{"DRAM_CYCLES: file block beats base", cfg.DRAMLatency, 150},
		{"QPI_CYCLES: variant beats file block", cfg.QPILatency, 60},
		{"MEM_CYCLES: -platform beats variant", cfg.MemCtrlService, 9},
		{"SOCKETS: -platform beats variant and file block", uint64(cfg.Sockets), 2},
		{"L2_CYCLES: -platform beats base", cfg.L2Latency, 11},
	} {
		if c.got != c.want {
			t.Errorf("%s: got %d, want %d", c.key, c.got, c.want)
		}
	}
	// The order of over is the precedence: swapped, the variant wins.
	if rc, err = s.Config(base, apps.Small(), cli, variant); err != nil || rc.Cfg.Sockets != 3 {
		t.Errorf("over layers applied out of order: SOCKETS %d (%v), want 3", rc.Cfg.Sockets, err)
	}
}

// TestLayerErrorsNameTheLayer: a platform a layer leaves invalid is an
// error that names that layer, and a scenario that does not fit its
// resolved platform still returns that platform.
func TestLayerErrorsNameTheLayer(t *testing.T) {
	s, err := Parse("scenario :: Scenario(NAME p, MIN_CORES_PER_SOCKET 4);\nplatform :: Platform(L3_BYTES 4160);\nmon :: Flow(TYPE MON);\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Config(testCfg(), apps.Small()); err == nil || !strings.HasPrefix(err.Error(), "scenario p: platform: L3 geometry") {
		t.Errorf("file block: error %v, want it to name scenario p's platform block", err)
	}
	s.Platform = nil
	variant, err := ParsePlatformArgs("platform half", click.ParseArgs([]string{"L3_BYTES 4160"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Config(testCfg(), apps.Small(), variant); err == nil || !strings.HasPrefix(err.Error(), "platform half: L3 geometry") {
		t.Errorf("variant: error %v, want it to name platform half", err)
	}
	cli, err := ParseOverrides("L3_BYTES 4160")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Config(testCfg(), apps.Small(), nil, cli); err == nil || !strings.HasPrefix(err.Error(), "-platform: L3 geometry") {
		t.Errorf("-platform: error %v, want it to name -platform", err)
	}

	narrow, err := ParseOverrides("SOCKETS 3, CORES_PER_SOCKET 2, L3_BYTES 524288")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := s.Config(testCfg(), apps.Small(), narrow)
	if err == nil || !strings.Contains(err.Error(), "scenario p needs ≥4 cores per socket") {
		t.Fatalf("2 cores per socket: error %v, want the scenario's core minimum", err)
	}
	if c := rc.Cfg; c.Sockets != 3 || c.CoresPerSocket != 2 || c.L3.SizeBytes != 524288 {
		t.Errorf("a scenario that does not fit lost its platform: %d sockets × %d cores, L3 %d", c.Sockets, c.CoresPerSocket, c.L3.SizeBytes)
	}
}

// TestPlatformErrors: malformed blocks fail deterministically with
// messages naming the offending key.
func TestPlatformErrors(t *testing.T) {
	cases := []struct{ args, want string }{
		{"SOCKETS zero", "not an integer"},
		{"SOCKETS 0", "outside [1,64]"},
		{"CORES_PER_SOCKET -3", "outside"},
		{"WIDGETS 7", "unknown key WIDGETS"},
		{"L3_POLICY FIFO", "L3_POLICY FIFO is not a replacement policy"},
		{"LINE_BYTES 128", "LINE_BYTES 128 outside [64,64]"},
		{"CLOCK_HZ -1e9", "CLOCK_HZ -1e9 outside (0,)"},
		{"STREAM_MLP 0", "STREAM_MLP 0 outside [1,)"},
		{"64", "positional argument"},
		{"L1_WAYS 129", "L1_WAYS 129 outside [1,128]"},
	}
	for _, c := range cases {
		text := "scenario :: Scenario(NAME p);\nplatform :: Platform(" + c.args + ");\nmon :: Flow(TYPE MON);\n"
		_, err := Parse(text)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Platform(%s): error %v, want containing %q", c.args, err, c.want)
		}
	}

	// Geometry that would panic hw's cache construction errors at Apply.
	s, err := Parse("scenario :: Scenario(NAME p);\nplatform :: Platform(L3_BYTES 4096, L3_WAYS 16);\nmon :: Flow(TYPE MON);\n")
	if err != nil {
		t.Fatal(err)
	}
	// 4096 B / 16 ways = 4 lines per way — valid. Shrink ways mismatch:
	bad, err := Parse("scenario :: Scenario(NAME p);\nplatform :: Platform(L3_BYTES 4160);\nmon :: Flow(TYPE MON);\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Platform.Apply(testCfg()); err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("invalid geometry accepted: %v", err)
	}
	if _, err := s.Platform.Apply(testCfg()); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}

	// A second platform declaration is an error.
	_, err = Parse("scenario :: Scenario(NAME p);\nplatform :: Platform();\nplatform2 :: Platform();\nmon :: Flow(TYPE MON);\n")
	if err == nil || !strings.Contains(err.Error(), "second Platform") {
		t.Fatalf("duplicate platform accepted: %v", err)
	}
}

// TestWaysLimitIsHWs: the cache model's recency word indexes at most 128
// ways, and a wider level is an error naming the key and the limit —
// whether a key names it or the base carries it — where hw.NewCache
// would panic. The widest geometry the grammar admits, with more cores
// per socket than the L3 word has holder bits, builds and runs.
func TestWaysLimitIsHWs(t *testing.T) {
	if _, err := ParseOverrides("L3_WAYS 65536"); err == nil || !strings.Contains(err.Error(), "L3_WAYS 65536 outside [1,128]") {
		t.Fatalf("L3_WAYS 65536: error %v, want the key and its limit", err)
	}
	wide := testCfg()
	wide.L2.Ways = 256
	if _, err := (&Platform{}).Apply(wide); err == nil || !strings.Contains(err.Error(), "L2_WAYS 256 outside [1,128]") {
		t.Fatalf("256-way base: error %v, want the key and its limit", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("hw.NewCache built a 129-way cache: scenario's maxWays is not hw's limit")
			}
		}()
		hw.NewCache("wide", hw.CacheGeom{SizeBytes: (maxWays + 1) * hw.LineSize, Ways: maxWays + 1}, hw.ReplaceLRU)
	}()

	p, err := ParseOverrides("L3_WAYS 128, CORES_PER_SOCKET 24")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := p.Apply(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	plat := hw.NewPlatform(cfg)
	// Cores 7 and 23 share a holder bit; both take a private copy, then
	// core 0 streams the L3 over: neither copy may survive the eviction.
	const line = hw.Addr(1 << 20)
	for _, id := range []int{7, 23} {
		plat.Cores[id].Access(0, line, false, hw.FuncOther)
	}
	for a := hw.Addr(0); a < hw.Addr(2*cfg.L3.SizeBytes); a += hw.LineSize {
		plat.Cores[0].Access(0, 1<<30+a, false, hw.FuncOther)
	}
	for _, id := range []int{7, 23} {
		if c := plat.Cores[id]; c.L1.Contains(line) || c.L2.Contains(line) {
			t.Errorf("core %d kept a private copy of a line the inclusive L3 evicted", id)
		}
	}
}

// TestParseErrorsIncludeLineNumbers: statement errors name the line the
// statement starts on, surviving line comments, block comments, and
// graph blocks between statements.
func TestParseErrorsIncludeLineNumbers(t *testing.T) {
	cases := []struct {
		text string
		want string
	}{
		{
			"scenario :: Scenario(NAME x);\nmon :: Flow(TYPE MON);\nbogus decl here;\n",
			"(line 3)",
		},
		{
			"// leading comment\nscenario :: Scenario(NAME x);\n/* block\ncomment\n*/\nbad :: Widget(1);\n",
			"(line 6)",
		},
		{
			"scenario :: Scenario(NAME x);\n\ngraph G {\n  src :: FromDevice(SIZE 64);\n  src -> ToDevice;\n}\n\ng :: Flow(GRAPH G);\nbad :: Widget(1);\n",
			"(line 9)",
		},
	}
	for i, c := range cases {
		_, err := Parse(c.text)
		if err == nil {
			t.Fatalf("case %d: parse accepted bad input", i)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %q does not carry %q", i, err, c.want)
		}
	}
}

// TestShippedMixedHalfL3 pins the shipped platform-block demo: on any
// base platform it is mixed with the shared L3 halved — the same
// configuration as mixed under a layer naming the half L3, the way a
// sweep variant or -platform would ask for it.
func TestShippedMixedHalfL3(t *testing.T) {
	base := testCfg()
	params := apps.Small()
	got, err := loadShipped(t, "mixed_half_l3").Config(base, params)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cfg.L3.SizeBytes != base.L3.SizeBytes/2 {
		t.Fatalf("platform block not applied: L3 %d, want %d", got.Cfg.L3.SizeBytes, base.L3.SizeBytes/2)
	}

	half, err := ParseOverrides(fmt.Sprintf("L3_BYTES %d", base.L3.SizeBytes/2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := loadShipped(t, "mixed").Config(base, params, half)
	if err != nil {
		t.Fatal(err)
	}
	want.Scenario = got.Scenario
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("half-L3 variant diverges from mixed on a half L3:\n got %+v\nwant %+v", got, want)
	}
}
