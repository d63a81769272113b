package pii

import (
	"encoding/base64"
	"encoding/hex"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unicode"
	"unicode/utf8"
)

// referenceScanner is the straightforward scan the automaton replaced:
// lower-case the whole payload with strings.ToLower, then one
// strings.Index per needle, longest needle first, first match per
// (kind, value, encoding) key. It is the oracle the Scanner must agree
// with on every payload and corpus.
type referenceScanner struct{ needles []needle }

func newReferenceScanner(c *Corpus) *referenceScanner {
	return &referenceScanner{needles: needlesFor(c)}
}

func (r *referenceScanner) Scan(payload []byte) []Match {
	if len(payload) == 0 || len(r.needles) == 0 {
		return nil
	}
	hay := strings.ToLower(string(payload))
	seen := make(map[string]bool)
	var out []Match
	for _, n := range r.needles {
		if strings.Index(hay, n.bytes) < 0 {
			continue
		}
		key := string(n.item.Kind) + "\x00" + n.item.Value + "\x00" + n.encoding
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Match{Item: n.item, Encoding: n.encoding})
	}
	return out
}

// fuzzKinds are the kinds a fuzzed corpus line picks from: the MAC kind
// (it adds the separator encodings), ordinary kinds, and two kinds whose
// "\x00"-joined dedup keys can collide with another item's.
var fuzzKinds = []Kind{KindMAC, KindName, KindEmail, KindUUID, "x", "x\x00y"}

// fuzzCorpus decodes a fuzzed corpus: one item per line, the first byte
// choosing the kind and the rest giving the value.
func fuzzCorpus(spec string) *Corpus {
	c := NewCorpus()
	for _, line := range strings.Split(spec, "\n") {
		if line == "" {
			continue
		}
		c.Add(fuzzKinds[int(line[0])%len(fuzzKinds)], line[1:])
	}
	return c
}

func checkAgainstReference(t *testing.T, c *Corpus, payload []byte) {
	t.Helper()
	got := NewScanner(c).Scan(payload)
	want := newReferenceScanner(c).Scan(payload)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("payload %q corpus %q:\n got  %+v\n want %+v", payload, c.items, got, want)
	}
}

// referenceSeeds cover the folding contract's edge cases: the two
// non-ASCII runes that lower into ASCII (in payloads and in needles),
// invalid UTF-8 (which lowers to U+FFFD), runes truncated at the end of
// the payload, non-ASCII needles including one that grows when lowered,
// duplicate items, and items whose dedup keys collide.
var referenceSeeds = []struct{ payload, corpus string }{
	{"MAC=74:DA:38:1B:20:01&id=74da381b2001", "\x0074:da:38:1b:20:01"},
	{"\u0130\u0130\u0130\u0130 and \u212a\u212aKk", "\x01iiii\n\x01kkkk"},
	{"\u0130STANBUL", "\x01\u0130stanbul"},
	{"KELVIN\u212a", "\x01Kelvin\u212a"},
	{"ab\xc4", "\x01abi\u0130"},
	{"ab\xe2\x84", "\x01abk\u212a"},
	{"\xc4\xb0\xe2\x84\xaa\xc4\xc4\xb0\xe2\xe2\x84\xaa", "\x01ii\u0130k"},
	{"xxAB\xfeCDyy \xff\xfe", "\x01ab\xffcd\n\x01\xff\xfe\xfd\xfc"},
	{"\xef\xbf\xbdab\xef\xbf\xbd", "\x01\xffab\xff"},
	{"\u00dcN\u00cfC\u00d6D\u00c9 ST\u00c5TE", "\x01\u00fcn\u00efc\u00f6d\u00e9 St\u00e5te"},
	{"\u023a\u023a\u2c65\u023a", "\x01\u023a\u023a\u023a"},
	{"owner=Jane+Doe&who=janedoe&n=SmFuZSBEb2U=", "\x01Jane Doe\n\x01Jane Doe\n\x02jane.doe@example.com"},
	{"zzzz", "\x04y\x00zzzz\n\x05zzzz"},
	{"", "\x01abcd"},
	{"abcd", ""},
	{"abcabcabcd bcab", "\x01abcd\n\x01bcab\n\x01cabc\n\x01abcabcabcd"},
}

func FuzzScanMatchesReference(f *testing.F) {
	for _, s := range referenceSeeds {
		f.Add([]byte(s.payload), s.corpus)
	}
	f.Fuzz(func(t *testing.T, payload []byte, corpus string) {
		checkAgainstReference(t, fuzzCorpus(corpus), payload)
	})
}

func TestScanMatchesReferenceSeeds(t *testing.T) {
	for _, s := range referenceSeeds {
		checkAgainstReference(t, fuzzCorpus(s.corpus), []byte(s.payload))
	}
}

// TestOnlyTwoRunesLowerIntoASCII pins the premise of the ASCII-corpus
// scan: apart from ASCII itself, only U+0130 and U+212A lower to ASCII,
// so every other non-ASCII rune can restart matching.
func TestOnlyTwoRunesLowerIntoASCII(t *testing.T) {
	for r := rune(utf8.RuneSelf); r <= unicode.MaxRune; r++ {
		if l := unicode.ToLower(r); l < utf8.RuneSelf && r != 0x130 && r != 0x212a {
			t.Errorf("U+%04X lowers to ASCII %q", r, l)
		}
	}
	if got := strings.ToLower("\u0130\u212a"); got != "ik" {
		t.Fatalf(`ToLower("\u0130\u212a") = %q, want "ik"`, got)
	}
}

// TestScannerConcurrentUse scans one shared Scanner from several
// goroutines; every result must equal the serial scan of that payload.
func TestScannerConcurrentUse(t *testing.T) {
	s := NewScanner(corpus())
	payloads := [][]byte{
		[]byte(`{"mac":"74:DA:38:1B:20:01","owner":"Jane+Doe"}`),
		[]byte("id=74da381b2001&email=" + "amFuZS5kb2VAZXhhbXBsZS5jb20="),
		ciphertextPayload(1400),
		[]byte("nothing to see here"),
	}
	want := make([][]Match, len(payloads))
	for i, p := range payloads {
		want[i] = s.Scan(p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				i := (g + rep) % len(payloads)
				if got := s.Scan(payloads[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d payload %d: got %+v, want %+v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestScanWideStateIDs covers a corpus whose trie outgrows 16-bit state
// ids: one long value's plain, base64 and hex forms.
func TestScanWideStateIDs(t *testing.T) {
	b := ciphertextPayload(20000)
	for i := range b {
		b[i] = 'a' + b[i]%26
	}
	c := NewCorpus(Item{KindDeviceName, string(b)})
	if s := NewScanner(c); s.ac32 == nil {
		t.Fatal("corpus compiled with 16-bit state ids")
	}
	for _, p := range []string{
		"x" + strings.ToUpper(string(b)) + "x",
		"x" + strings.ToUpper(hex.EncodeToString(b)),
		base64.URLEncoding.EncodeToString(b)[7:],
		string(b[:19999]),
	} {
		checkAgainstReference(t, c, []byte(p))
	}
}
