package devices

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refTextualPayload is the original fmt/concatenation textualPayload,
// kept as the oracle for the single-buffer one: one fmt.Sprintf per
// field, and a string copy per "padN=D&" term.
func refTextualPayload(rng *rand.Rand, size int, leak string, first bool) []byte {
	if size < 16 {
		size = 16
	}
	msg := fmt.Sprintf("cmd=status&seq=%d&state=on&rssi=-%d&uptime=%d&",
		rng.Intn(10000), 30+rng.Intn(40), rng.Intn(100000))
	if first && leak != "" {
		msg = leak + "&" + msg
	}
	for len(msg) < size {
		msg += fmt.Sprintf("pad%d=%d&", len(msg), rng.Intn(10))
	}
	return []byte(msg[:size])
}

// refMixedPayload is the original mixedPayload: a textual head and a
// randomPayload tail, joined by append.
func refMixedPayload(rng *rand.Rand, size int, leak string, first bool) []byte {
	if size < 32 {
		size = 32
	}
	textLen := size * 3 / 4
	head := refTextualPayload(rng, textLen, leak, first)
	n := size - len(head)
	if n < 8 {
		n = 8
	}
	tail := make([]byte, n)
	rng.Read(tail)
	return append(head, tail...)
}

// TestTextualPayloadMatchesReference requires the same bytes and the
// same RNG state afterwards as the oracles, for textual and mixed
// payloads of every size a synthesized packet or response can take and
// for leaks that are empty, non-ASCII, or longer than the payload.
func TestTextualPayloadMatchesReference(t *testing.T) {
	leaks := []string{
		"",
		"email=alice@example.com",
		"name=Jos\u00e9 M\u00fcller&city=\u6771\u4eac",
		strings.Repeat("mac=74:da:38:00:00:01;", 80), // 1,760 bytes
	}
	for size := 0; size <= 1500; size++ {
		for li, leak := range leaks {
			for _, first := range []bool{true, false} {
				seed := int64(size*8 + li*2)
				g := &Gen{Env: &Env{Rng: rand.New(rand.NewSource(seed))}}
				ref := rand.New(rand.NewSource(seed))
				for _, kind := range []string{"textual", "mixed"} {
					var got, want []byte
					if kind == "textual" {
						got, want = g.textualPayload(size, leak, first), refTextualPayload(ref, size, leak, first)
					} else {
						got, want = g.mixedPayload(size, leak, first), refMixedPayload(ref, size, leak, first)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s size %d leak %d first %v:\n got %q\nwant %q", kind, size, li, first, got, want)
					}
					if a, b := g.Env.Rng.Int63(), ref.Int63(); a != b {
						t.Fatalf("%s size %d leak %d first %v: next draw %d, want %d", kind, size, li, first, a, b)
					}
				}
			}
		}
	}
}

// BenchmarkTextualPayload measures one synthesized plaintext payload at
// the sizes drawSize clamps to (20–1400 bytes) and a typical 600-byte
// message.
func BenchmarkTextualPayload(b *testing.B) {
	for _, size := range []int{20, 600, 1400} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			g := &Gen{Env: &Env{Rng: rand.New(rand.NewSource(1))}}
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				g.textualPayload(size, "", false)
			}
		})
	}
}
