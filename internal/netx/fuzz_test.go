package netx

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// checkDecodeLink is the DecodeLink fuzz property. Decoding must never
// panic, and a decoded packet's Serialize must be a fixed point of one
// more round trip: the serialized frame re-decodes (as Ethernet, the
// only framing Serialize emits) to a packet that serializes to the same
// bytes. The first Serialize may differ from the input — options,
// trailing padding and the SLL header are not kept — but nothing may
// drift after that.
func checkDecodeLink(t *testing.T, frame []byte, sll bool) {
	link := LinkEthernet
	if sll {
		link = LinkLinuxSLL
	}
	p, err := DecodeLink(time.Time{}, frame, link)
	if err != nil {
		return
	}
	wire := p.Serialize()
	q, err := DecodeLink(time.Time{}, wire, LinkEthernet)
	if err != nil {
		t.Fatalf("serialized packet does not re-decode: %v\nframe %x\nwire  %x", err, frame, wire)
	}
	if again := q.Serialize(); !bytes.Equal(again, wire) {
		t.Fatalf("serialize is not a fixed point\nframe %x\nwire  %x\nagain %x", frame, wire, again)
	}
}

// FuzzDecodeLink runs the property over the checked-in seed corpus
// (testdata/fuzz/FuzzDecodeLink: Ethernet, 802.1Q, QinQ and SLL frames
// carrying TCP, UDP, ICMP and ARP, plus truncations of each) and, under
// -fuzz, over its mutations.
func FuzzDecodeLink(f *testing.F) {
	f.Fuzz(checkDecodeLink)
}

// TestDecodeLinkRandom runs the fuzz property over a fixed set of random
// inputs so every plain test run exercises the parser: seed frames with
// bytes overwritten, truncated or extended, and frames of pure noise.
func TestDecodeLinkRandom(t *testing.T) {
	seeds := loadDecodeLinkCorpus(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		var frame []byte
		sll := rng.Intn(2) == 0
		if i%4 == 0 {
			frame = make([]byte, rng.Intn(96))
			rng.Read(frame)
		} else {
			seed := seeds[rng.Intn(len(seeds))]
			frame, sll = append([]byte(nil), seed.frame...), seed.sll
			for n := rng.Intn(4); n > 0 && len(frame) > 0; n-- {
				frame[rng.Intn(len(frame))] = byte(rng.Intn(256))
			}
			switch rng.Intn(3) {
			case 0:
				frame = frame[:rng.Intn(len(frame)+1)]
			case 1:
				tail := make([]byte, rng.Intn(16))
				rng.Read(tail)
				frame = append(frame, tail...)
			}
		}
		checkDecodeLink(t, frame, sll)
	}
}

type corpusEntry struct {
	frame []byte
	sll   bool
}

// loadDecodeLinkCorpus reads the FuzzDecodeLink seed corpus files.
func loadDecodeLinkCorpus(t *testing.T) []corpusEntry {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeLink", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("FuzzDecodeLink seed corpus is missing")
	}
	var out []corpusEntry
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		e, err := parseCorpusEntry(b)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, e)
	}
	return out
}

// parseCorpusEntry decodes one file of the go test fuzz v1 corpus
// format for FuzzDecodeLink's ([]byte, bool) arguments.
func parseCorpusEntry(b []byte) (corpusEntry, error) {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 3 || lines[0] != "go test fuzz v1" {
		return corpusEntry{}, fmt.Errorf("not a two-argument go test fuzz v1 file")
	}
	quoted, ok := strings.CutPrefix(lines[1], "[]byte(")
	quoted, ok2 := strings.CutSuffix(quoted, ")")
	if !ok || !ok2 {
		return corpusEntry{}, fmt.Errorf("first argument is not []byte: %s", lines[1])
	}
	frame, err := strconv.Unquote(quoted)
	if err != nil {
		return corpusEntry{}, err
	}
	switch lines[2] {
	case "bool(false)":
		return corpusEntry{[]byte(frame), false}, nil
	case "bool(true)":
		return corpusEntry{[]byte(frame), true}, nil
	}
	return corpusEntry{}, fmt.Errorf("second argument is not bool: %s", lines[2])
}
