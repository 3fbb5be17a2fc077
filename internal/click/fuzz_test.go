package click

import (
	"strings"
	"testing"
	"testing/quick"

	"pktpredict/internal/rng"
)

// FuzzParseConfig feeds arbitrary text to the configuration parser,
// which must reject or accept it without panicking — configurations are
// user input. The seed corpus covers the grammar's corners: output
// ports, input ports, routers, tees, fan-in, inline anonymous elements,
// comments, and malformed port brackets.
func FuzzParseConfig(f *testing.F) {
	seeds := []string{
		`src :: TSource(COUNT 2); src -> TElem -> TDrop;`,
		"src :: SeqSource(COUNT 4);\ncls :: TCls;\nsrc -> cls;\ncls[0] -> TElem;\ncls[1] -> TDrop;",
		"src :: SeqSource; rr :: TRR; src -> rr; rr[0] -> TElem; rr[1] -> TElem;",
		"src :: SeqSource; tee :: TTee; src -> tee; tee[0] -> TElem; tee[1] -> TDrop;",
		"src :: SeqSource; sink :: TElem; cls :: TCls; src -> cls; cls[0] -> sink; cls[1] -> sink;",
		`src :: TSource; src -> [0]TElem;`,
		`src :: TSource; a :: TElem; src -> a[1];`,
		`src :: TSource; a :: TElem; src -> a[;`,
		`src :: TSource; a :: TElem; src -> [x]a;`,
		`src :: TSource; a :: TElem; src -> a[-1];`,
		"/* comment */ src :: TSource; // tail\nsrc -> TElem;",
		"a :: TElem; b :: TElem; a -> b; b -> a;",
		"src :: TSource(COUNT 1, SEED 7); src -> TElem(X 1, Y 2);",
		"cls[999999999999999999] -> TElem;",
		"src :: TSource; src -> TCls;",
		// Platform(...) declarations are scenario-level grammar; inside a
		// click config they are just an unknown element class and must be
		// rejected deterministically, never crash the lexer.
		"platform :: Platform(SOCKETS 2, CORES_PER_SOCKET 4); src :: TSource; src -> TElem;",
		"platform :: Platform(L3_BYTES 524288, LINE_BYTES 64);",
		"platform :: Platform(SOCKETS 2",
		// IDS element grammar: seeded pattern sets and their malformed
		// values, entropy thresholds/windows, ban-table sizing.
		"src :: TSource; sig :: SignatureClassifier(PATTERNS 2, SIG_SEED 5); src -> sig; sig[0] -> TElem; sig[1] -> TDrop;",
		"sig :: SignatureClassifier(PATTERNS 16, SIG_SEED 11);",
		"sig :: SignatureClassifier(PATTERNS abc);",
		"sig :: SignatureClassifier(|||);",
		"sig :: SignatureClassifier(SIG_SEED zz11);",
		"sig :: SignatureClassifier(PATTERNS -3);",
		"ent :: EntropyGate(THRESHOLD 6.5, WINDOW 512); ent[0] -> TElem; ent[1] -> TDrop;",
		"ent :: EntropyGate(THRESHOLD 99);",
		"ent :: EntropyGate(THRESHOLD x, WINDOW -1);",
		"bans :: BanTable(ENTRIES 16384); bans[0] -> TElem; bans[1] -> TDrop;",
		"bans :: BanTable(ENTRIES 0);",
		"src :: FromDevice(SIZE 512, SIG_HIT 0.06, SIG_COUNT 16, SIG_SEED 11, LOW_ENTROPY 0.5, LOW_ENTROPY_BITS 2); src -> TElem;",
		"src :: FromDevice(SIG_HIT 0.02, SIG_SHIFT 0.6, SIG_SHIFT_AFTER 4000);",
		"src :: FromDevice(SIG_HIT 1.5);",
		"src :: FromDevice(SIG_HIT 0.5, SIG_COUNT 0);",
		"src :: FromDevice(LOW_ENTROPY_BITS 9);",
		// Element arguments a key table refuses — misspelled keys, stray
		// positionals, values outside the row's interval (the scenario
		// package's TestBadElementArgumentsAreErrors builds the same
		// strings with the real classes registered).
		"src :: FromDevice; src -> RadixIPLookup(ROUTE 100) -> ToDevice;",
		"src :: FromDevice; src -> NetFlow(ENTRIS 64) -> ToDevice;",
		"src :: FromDevice; src -> NetFlow(64) -> ToDevice;",
		"src :: FromDevice; src -> IPRewriter(ENTRIES -1) -> ToDevice;",
		"src :: FromDevice; src -> ToDevice(FOO 1);",
		"src :: FromDevice; src -> NetFlow(ENTRIES -5) -> ToDevice;",
		"src :: FromDevice; src -> NetFlow(ENTRIES 0) -> ToDevice;",
		"src :: FromDevice; src -> ToDevice(RING -4);",
		"src :: FromDevice(BUFFERS -3); src -> ToDevice;",
		"src :: FromDevice; src -> RedundancyElim(STORE -1) -> ToDevice;",
		"src :: FromDevice; src -> Syn(REGION -4096) -> ToDevice;",
		"src :: FromDevice; src -> Control(DELAY 5000000000) -> ToDevice;",
		"src :: FromDevice(FLOWS -64); src -> ToDevice;",
		"src :: FromDevice; src -> AESEncrypt(OUTBUFS -1) -> ToDevice;",
		"src :: FromDevice; src -> Syn(ACCESSES -1) -> ToDevice;",
		"src :: FromDevice; src -> EntropyGate(WINDOW -8) -> ToDevice;",
		"src :: FromDevice(BUFFERS 4000000000, SIZE 1500); src -> ToDevice;",
		"src :: FromDevice; src -> ToDevice(RING 4000000000);",
		"src :: TSource(COUNT -1); src -> TElem(FOO 1) -> TDrop(5);",
		"src :: SeqSource(COUNTS 2, 7); src -> TElem;",
		// Stage statements — the grammar's third kind — well-formed, naming
		// nothing, twice, with a gap, backwards, malformed; and an element
		// merely named stage.
		"src :: SeqSource; a :: TElem; b :: TElem; src -> a -> b; stage 1: b;",
		"src :: SeqSource; a :: TElem; b :: TElem; src -> a -> b -> TDrop; stage 1: b, TDrop@1",
		"src :: SeqSource; src -> TElem; stage 1: nope;",
		"src :: SeqSource; a :: TElem; b :: TElem; src -> a -> b; stage 1: b; stage 2: b;",
		"src :: SeqSource; a :: TElem; b :: TElem; src -> a -> b; stage 2: b;",
		"src :: SeqSource; a :: TElem; b :: TElem; c :: TElem; src -> a -> b -> c; stage 1: b; stage 0: c;",
		"src :: SeqSource; a :: TElem; src -> a; stage 1: a;",
		"stage 1 a; stage 1x: a; stage 1: ; stage 99999999999999999999: a; stage 1:: a;",
		"src :: SeqSource; stage :: TElem; src -> stage -> TDrop; stage 0: stage;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, config string) {
		ParseConfig(testEnv(), "fuzz", config) //nolint:errcheck
	})
}

// Property: ParseConfig never panics, whatever text it is fed —
// configurations are user input.
func TestParseConfigNeverPanicsQuick(t *testing.T) {
	pieces := []string{
		"a", "::", "->", ";", "(", ")", ",", "TSource", "TElem", "\n",
		"COUNT 1", "//x", "/*", "*/", " ", "a1", "_b",
		"[0]", "[1]", "[", "]", "TCls", "TTee",
	}
	f := func(seed uint64, n uint8) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		r := rng.New(seed)
		var b strings.Builder
		for i := 0; i < int(n); i++ {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		ParseConfig(testEnv(), "fuzz", b.String()) //nolint:errcheck
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: splitTopLevel never loses characters — joining the parts
// with the separator reproduces the input whenever the input has
// balanced parentheses at the split points.
func TestSplitTopLevelLosslessQuick(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		alphabet := []byte("ab,();->")
		raw := make([]byte, int(n))
		for i := range raw {
			raw[i] = alphabet[r.Intn(len(alphabet))]
		}
		s := string(raw)
		parts := SplitTopLevel(s, ",")
		joined := strings.Join(parts, ",")
		return joined == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStripCommentsEdgeCases(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a // b\nc", "a \nc"},
		{"a /* b */ c", "a  c"},
		{"a // no newline", "a "},
		{"/*x*/ /*y*/z", " z"},
		{"no comments", "no comments"},
	}
	for _, c := range cases {
		got, err := StripComments(c.in)
		if err != nil {
			t.Fatalf("StripComments(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("StripComments(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestIsIdent(t *testing.T) {
	valid := []string{"a", "a1", "_x", "CheckIPHeader", "src_0"}
	invalid := []string{"", "1a", "a-b", "a b", "a(", "->"}
	for _, s := range valid {
		if !isIdent(s) {
			t.Fatalf("isIdent(%q) = false, want true", s)
		}
	}
	for _, s := range invalid {
		if isIdent(s) {
			t.Fatalf("isIdent(%q) = true, want false", s)
		}
	}
}
