package scenario

import (
	"reflect"
	"strings"
	"testing"

	"pktpredict/internal/apps"
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
	c1, err := s1.PlatformConfig(base)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s2.PlatformConfig(base)
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
	got, err := s.PlatformConfig(base)
	if err != nil {
		t.Fatal(err)
	}
	want := base
	want.L3.SizeBytes = 524288
	if got != want {
		t.Fatalf("partial override: got %+v, want %+v", got, want)
	}
}

// TestPlatformPrecedence: -scale base < file block < CLI overrides.
func TestPlatformPrecedence(t *testing.T) {
	s, err := Parse(`
scenario :: Scenario(NAME p);
platform :: Platform(SOCKETS 4, L3_BYTES 524288);
mon :: Flow(TYPE MON);
`)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := ParseOverrides("SOCKETS 2, MEM_CYCLES 9")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.PlatformConfig(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = cli.Apply(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Sockets != 2 {
		t.Fatalf("CLI override lost: SOCKETS %d, want 2", cfg.Sockets)
	}
	if cfg.L3.SizeBytes != 524288 {
		t.Fatalf("file override lost: L3 %d, want 524288", cfg.L3.SizeBytes)
	}
	if cfg.MemCtrlService != 9 {
		t.Fatalf("CLI addition lost: MEM_CYCLES %d, want 9", cfg.MemCtrlService)
	}
	if cfg.CoresPerSocket != testCfg().CoresPerSocket {
		t.Fatalf("untouched key changed: CORES_PER_SOCKET %d", cfg.CoresPerSocket)
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
	if _, err := bad.PlatformConfig(testCfg()); err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("invalid geometry accepted: %v", err)
	}
	if _, err := s.PlatformConfig(testCfg()); err != nil {
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

// TestShippedMixedHalfL3 pins the shipped platform-block demo: same flow
// groups as mixed, on the half-L3 variant of whatever base platform it
// is assembled on — asserted via both the Config path (block applied
// implicitly) and the sweep-style PlatformConfig/ConfigOn split.
func TestShippedMixedHalfL3(t *testing.T) {
	base := testCfg()
	params := apps.Small()
	s := loadShipped(t, "mixed_half_l3")

	direct, err := s.Config(base, params)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := s.PlatformConfig(base)
	if err != nil {
		t.Fatal(err)
	}
	split, err := s.ConfigOn(resolved, params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, split) {
		t.Fatalf("Config and PlatformConfig+ConfigOn diverge:\n got %+v\nwant %+v", split, direct)
	}
	if direct.Cfg.L3.SizeBytes != base.L3.SizeBytes/2 {
		t.Fatalf("platform block not applied: L3 %d, want %d", direct.Cfg.L3.SizeBytes, base.L3.SizeBytes/2)
	}

	mixed := loadShipped(t, "mixed")
	want, err := mixed.Config(base, params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Apps, want.Apps) {
		t.Fatalf("half-L3 variant's flow groups diverge from mixed:\n got %+v\nwant %+v", direct.Apps, want.Apps)
	}
}
