package pii

import (
	"encoding/base64"
	"encoding/hex"
	"math"
	"net/url"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind categorizes a PII item, mirroring §2.1's "stored data" taxonomy.
type Kind string

const (
	KindMAC        Kind = "mac_address"
	KindUUID       Kind = "uuid"
	KindDeviceID   Kind = "device_id"
	KindSerial     Kind = "serial_number"
	KindName       Kind = "person_name"
	KindEmail      Kind = "email"
	KindAddress    Kind = "postal_address"
	KindPhone      Kind = "phone_number"
	KindUsername   Kind = "username"
	KindPassword   Kind = "password"
	KindGeo        Kind = "geolocation"
	KindDeviceName Kind = "device_name" // user-specified, e.g. "John Doe's Roku TV"
	KindSSID       Kind = "wifi_ssid"
)

// Item is one piece of PII to look for.
type Item struct {
	Kind  Kind
	Value string
}

// Corpus is the set of PII known for a device (the testbed knows ground
// truth because it created the accounts and assigned the identifiers).
type Corpus struct {
	items []Item
}

// NewCorpus builds a corpus; empty values are skipped.
func NewCorpus(items ...Item) *Corpus {
	c := &Corpus{}
	for _, it := range items {
		if strings.TrimSpace(it.Value) != "" {
			c.items = append(c.items, it)
		}
	}
	return c
}

// Add appends an item.
func (c *Corpus) Add(kind Kind, value string) {
	if strings.TrimSpace(value) != "" {
		c.items = append(c.items, Item{Kind: kind, Value: value})
	}
}

// Items returns a copy of the corpus contents.
func (c *Corpus) Items() []Item { return append([]Item(nil), c.items...) }

// Len is the number of items.
func (c *Corpus) Len() int { return len(c.items) }

// Match is one detected exposure.
type Match struct {
	Item     Item
	Encoding string // "plain", "hex", "base64", "urlescape", "nocolon", ...
}

// needle is one encoded form of an item, lower-cased.
type needle struct {
	item     Item
	encoding string
	bytes    string
}

// needlesFor expands a corpus into its encoded needles, longest first
// (stable), so the most specific encoding is reported first.
func needlesFor(c *Corpus) []needle {
	var out []needle
	for _, it := range c.items {
		add := func(encoding, v string) {
			if len(v) < 4 {
				return // too short to search for reliably
			}
			out = append(out, needle{item: it, encoding: encoding, bytes: strings.ToLower(v)})
		}
		v := it.Value
		add("plain", v)
		add("base64", base64.StdEncoding.EncodeToString([]byte(v)))
		add("base64url", base64.URLEncoding.EncodeToString([]byte(v)))
		add("hex", hex.EncodeToString([]byte(v)))
		if esc := url.QueryEscape(v); esc != v {
			add("urlescape", esc)
		}
		if it.Kind == KindMAC {
			// MACs leak with separators stripped or swapped.
			add("nocolon", strings.ReplaceAll(v, ":", ""))
			add("dashes", strings.ReplaceAll(v, ":", "-"))
		}
		if strings.Contains(v, " ") {
			// Names/addresses often appear with '+' or '%20' or concatenated.
			add("plusjoined", strings.ReplaceAll(v, " ", "+"))
			add("concat", strings.ReplaceAll(v, " ", ""))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return len(out[i].bytes) > len(out[j].bytes) })
	return out
}

// Scanner matches a corpus against payloads under multiple encodings.
// The distinct needle strings compile into one Aho–Corasick automaton,
// so a scan reads each payload byte once, whatever the corpus size. A
// Scanner is immutable after NewScanner and safe for concurrent use.
type Scanner struct {
	// The automaton, with 16-bit state ids unless the trie outgrows
	// them. Both are nil when no needle is long enough to search for.
	ac16     *automaton[uint16]
	ac32     *automaton[uint32]
	patterns int // distinct needle strings
	keys     int // distinct (kind, value, encoding) keys
	// report lists, longest needle first, the match each needle yields,
	// the automaton pattern that finds it and its dedup key.
	report []reportEntry
}

type reportEntry struct {
	m        Match
	pat, key int
}

// NewScanner compiles a scanner for the corpus.
func NewScanner(c *Corpus) *Scanner {
	needles := needlesFor(c)
	s := &Scanner{report: make([]reportEntry, 0, len(needles))}
	patID := make(map[string]int, len(needles))
	keyID := make(map[string]int, len(needles))
	var pats []string
	ascii := true
	for _, n := range needles {
		if _, ok := patID[n.bytes]; !ok {
			patID[n.bytes] = len(pats)
			pats = append(pats, n.bytes)
			for i := 0; i < len(n.bytes); i++ {
				ascii = ascii && n.bytes[i] < utf8.RuneSelf
			}
		}
		key := string(n.item.Kind) + "\x00" + n.item.Value + "\x00" + n.encoding
		if _, ok := keyID[key]; !ok {
			keyID[key] = len(keyID)
		}
		s.report = append(s.report, reportEntry{Match{n.item, n.encoding}, patID[n.bytes], keyID[key]})
	}
	s.patterns, s.keys = len(pats), len(keyID)
	if len(pats) == 0 {
		return s
	}
	// Patterns are numbered in the order above; the trie wants them
	// sorted, so it numbers states over a sorted view.
	order := make([]int, len(pats))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return pats[order[i]] < pats[order[j]] })
	if trieStates(pats, order) <= math.MaxUint16 {
		s.ac16 = compile[uint16](pats, order, ascii)
	} else {
		s.ac32 = compile[uint32](pats, order, ascii)
	}
	return s
}

// Scan searches payload for every needle and returns all matches,
// longest needle first, deduplicated per (item, encoding). Matching is
// case-insensitive exactly as if payload were first passed through
// strings.ToLower (see the package documentation); the payload is not
// copied.
func (s *Scanner) Scan(payload []byte) []Match {
	if len(payload) == 0 || s.patterns == 0 {
		return nil
	}
	var foundBuf, seenBuf [4]uint64
	found := bitset(foundBuf[:], s.patterns)
	var left int
	if s.ac16 != nil {
		left = s.ac16.scan(payload, found, s.patterns)
	} else {
		left = s.ac32.scan(payload, found, s.patterns)
	}
	if left == s.patterns {
		return nil
	}
	seen := bitset(seenBuf[:], s.keys)
	var out []Match
	for _, r := range s.report {
		if has(found, r.pat) && !has(seen, r.key) {
			set(seen, r.key)
			out = append(out, r.m)
		}
	}
	return out
}

// bitset returns buf when it holds n bits, else a heap slice that does.
func bitset(buf []uint64, n int) []uint64 {
	if w := (n + 63) / 64; w > len(buf) {
		return make([]uint64, w)
	}
	return buf
}

func has(b []uint64, i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func set(b []uint64, i int)      { b[i>>6] |= 1 << (i & 63) }

type stateID interface{ uint16 | uint32 }

// Payload bytes reach the automaton through a fold table: ASCII bytes
// map to their lower case, and a byte the table cannot fold alone maps
// to slowByte. Needles are valid UTF-8, so neither slowByte (0xFF) nor,
// in an all-ASCII corpus, deadByte (0x80) occurs in one; feeding
// deadByte therefore returns the automaton to its root.
const (
	slowByte = 0xFF
	deadByte = 0x80
)

// asciiFold serves corpora whose needles are all ASCII. Only U+0130 and
// U+212A lower into ASCII (to 'i' and 'k'), so only their lead bytes C4
// and E2 need a look at what follows; every other non-ASCII byte is
// dead. utf8Fold serves every other corpus: each non-ASCII byte starts
// a rune decode.
var asciiFold, utf8Fold = foldTables()

func foldTables() (ascii, utf *[256]byte) {
	ascii, utf = new([256]byte), new([256]byte)
	for b := 0; b < 256; b++ {
		switch {
		case 'A' <= b && b <= 'Z':
			ascii[b] = byte(b) + 'a' - 'A'
		case b < utf8.RuneSelf:
			ascii[b] = byte(b)
		case b == 0xC4 || b == 0xE2:
			ascii[b] = slowByte
		default:
			ascii[b] = deadByte
		}
		utf[b] = ascii[b]
		if b >= utf8.RuneSelf {
			utf[b] = slowByte
		}
	}
	return ascii, utf
}

// automaton is an Aho–Corasick automaton over the lower-cased needle
// bytes. States are numbered breadth first with siblings in byte order,
// so the children of state s are the states first[s]..first[s+1]-1 and
// label[c] is the byte on the edge into c. The root's transitions are a
// dense row; elsewhere a miss follows fail. out[s] is 1 + the pattern
// ending at s, or failing that at its nearest suffix state (0: none),
// and next continues that chain from a pattern to the next shorter one.
type automaton[S stateID] struct {
	root  [256]S
	first []S
	label []byte
	fail  []S
	out   []S
	next  []S
	fold  *[256]byte // asciiFold or utf8Fold
}

// trieStates counts the states of the trie over pats: the root plus,
// for each pattern in sorted order, the bytes past its common prefix
// with the previous one.
func trieStates(pats []string, order []int) int {
	n, prev := 1, ""
	for _, i := range order {
		p := pats[i]
		lcp := 0
		for lcp < len(p) && lcp < len(prev) && p[lcp] == prev[lcp] {
			lcp++
		}
		n += len(p) - lcp
		prev = p
	}
	return n
}

// compile builds the automaton level by level. At depth d the patterns
// still longer than d, walked in sorted order, visit their depth-d
// states in increasing id order and list each state's children
// contiguously and in byte order, which is what gives the breadth-first
// numbering its contiguous child ranges.
func compile[S stateID](pats []string, order []int, ascii bool) *automaton[S] {
	n := trieStates(pats, order)
	a := &automaton[S]{
		first: make([]S, n+1),
		label: make([]byte, n),
		fail:  make([]S, n),
		out:   make([]S, n),
		next:  make([]S, len(pats)),
		fold:  utf8Fold,
	}
	if ascii {
		a.fold = asciiFold
	}
	cur := make([]S, len(pats)) // each pattern's state at the current depth
	active := append([]int(nil), order...)
	id := S(1)
	for d := 0; len(active) > 0; d++ {
		var prevParent S
		var prevByte byte
		fresh := true
		kept := active[:0]
		for _, p := range active {
			parent, c := cur[p], pats[p][d]
			if fresh || parent != prevParent || c != prevByte {
				if a.first[parent] == 0 {
					a.first[parent] = id
				}
				a.label[id] = c
				id++
				fresh, prevParent, prevByte = false, parent, c
			}
			cur[p] = id - 1
			if len(pats[p]) == d+1 {
				a.out[id-1] = S(p + 1)
			} else {
				kept = append(kept, p)
			}
		}
		active = kept
	}
	// A leaf's empty child range starts where the next state's does.
	a.first[n] = S(n)
	for s := n - 1; s >= 0; s-- {
		if a.first[s] == 0 {
			a.first[s] = a.first[s+1]
		}
	}
	for c := a.first[0]; c < a.first[1]; c++ {
		a.root[a.label[c]] = c
	}
	// Breadth-first order visits every parent before its children and
	// every fail target (a shorter string) before the state using it.
	for s := S(0); int(s) < n; s++ {
		for c := a.first[s]; c < a.first[s+1]; c++ {
			if s != 0 {
				a.fail[c] = a.step(a.fail[s], a.label[c])
			}
			if a.out[c] != 0 {
				a.next[a.out[c]-1] = a.out[a.fail[c]]
			} else {
				a.out[c] = a.out[a.fail[c]]
			}
		}
	}
	return a
}

// step is the automaton's transition from s on byte c.
func (a *automaton[S]) step(s S, c byte) S {
	for s != 0 {
		for e := a.first[s]; e < a.first[s+1]; e++ {
			if a.label[e] == c {
				return e
			}
		}
		s = a.fail[s]
	}
	return a.root[c]
}

// mark sets found's bit for every pattern ending at s and returns how
// many patterns are still missing. A pattern's whole suffix chain is
// marked with it, so the walk stops at the first pattern already found.
func (a *automaton[S]) mark(s S, found []uint64, left int) int {
	for o := a.out[s]; o != 0; o = a.next[o-1] {
		pat := int(o - 1)
		if has(found, pat) {
			break
		}
		set(found, pat)
		left--
	}
	return left
}

// scan sets found's bit for every pattern occurring in the payload as
// strings.ToLower would rewrite it, without building the lower-cased
// copy. left is the number of patterns not yet found; scan returns how
// many are still missing, stopping early at zero.
//
// strings.ToLower decodes the payload rune by rune, reads each invalid
// byte as U+FFFD and writes unicode.ToLower of every rune. The fold
// table does that for ASCII. A slowByte is a rune to decode: with an
// all-ASCII corpus only U+0130 or U+212A can matter, and their lead
// bytes C4 and E2 are never continuation bytes, so they begin a rune
// wherever they occur; otherwise the rune's lowered bytes are fed in
// turn.
func (a *automaton[S]) scan(p []byte, found []uint64, left int) int {
	var s S
	for i := 0; i < len(p); i++ {
		c := a.fold[p[i]]
		if c == slowByte {
			switch {
			case a.fold == asciiFold && p[i] == 0xC4:
				c = deadByte
				if i+1 < len(p) && p[i+1] == 0xB0 { // U+0130
					c = 'i'
					i++
				}
			case a.fold == asciiFold:
				c = deadByte
				if i+2 < len(p) && p[i+1] == 0x84 && p[i+2] == 0xAA { // U+212A
					c = 'k'
					i += 2
				}
			default:
				r, w := utf8.DecodeRune(p[i:])
				i += w - 1
				var lower [utf8.UTFMax]byte
				n := utf8.EncodeRune(lower[:], unicode.ToLower(r))
				for _, b := range lower[:n-1] {
					s = a.step(s, b)
					left = a.mark(s, found, left)
				}
				c = lower[n-1]
			}
		}
		s = a.step(s, c)
		if a.out[s] != 0 {
			if left = a.mark(s, found, left); left == 0 {
				return 0
			}
		}
	}
	return left
}
