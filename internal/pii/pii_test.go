package pii

import (
	"encoding/base64"
	"encoding/hex"
	"math/rand"
	"testing"
)

func corpus() *Corpus {
	return NewCorpus(
		Item{KindMAC, "74:da:38:1b:20:01"},
		Item{KindEmail, "jane.doe@example.com"},
		Item{KindName, "Jane Doe"},
		Item{KindPassword, "hunter2secret"},
		Item{KindDeviceName, "Jane Doe's Roku TV"},
	)
}

func TestScanPlain(t *testing.T) {
	s := NewScanner(corpus())
	matches := s.Scan([]byte(`{"mac":"74:da:38:1b:20:01","fw":"2.0"}`))
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	if matches[0].Item.Kind != KindMAC || matches[0].Encoding != "plain" {
		t.Errorf("match: %+v", matches[0])
	}
}

func TestScanCaseInsensitive(t *testing.T) {
	s := NewScanner(corpus())
	matches := s.Scan([]byte("MAC=74:DA:38:1B:20:01"))
	if len(matches) == 0 {
		t.Fatal("uppercase MAC not matched")
	}
}

func TestScanNoColonMAC(t *testing.T) {
	s := NewScanner(corpus())
	matches := s.Scan([]byte("id=74da381b2001&type=cam"))
	found := false
	for _, m := range matches {
		if m.Item.Kind == KindMAC && m.Encoding == "nocolon" {
			found = true
		}
	}
	if !found {
		t.Fatalf("nocolon MAC not detected: %+v", matches)
	}
}

func TestScanBase64(t *testing.T) {
	s := NewScanner(corpus())
	enc := base64.StdEncoding.EncodeToString([]byte("jane.doe@example.com"))
	matches := s.Scan([]byte("payload=" + enc))
	found := false
	for _, m := range matches {
		if m.Item.Kind == KindEmail && m.Encoding == "base64" {
			found = true
		}
	}
	if !found {
		t.Fatalf("base64 email not detected: %+v", matches)
	}
}

func TestScanHex(t *testing.T) {
	s := NewScanner(corpus())
	enc := hex.EncodeToString([]byte("hunter2secret"))
	matches := s.Scan([]byte(enc))
	found := false
	for _, m := range matches {
		if m.Item.Kind == KindPassword && m.Encoding == "hex" {
			found = true
		}
	}
	if !found {
		t.Fatalf("hex password not detected: %+v", matches)
	}
}

func TestScanURLEscapedName(t *testing.T) {
	s := NewScanner(corpus())
	matches := s.Scan([]byte("GET /reg?owner=Jane+Doe HTTP/1.1"))
	found := false
	for _, m := range matches {
		if m.Item.Kind == KindName {
			found = true
		}
	}
	if !found {
		t.Fatalf("plus-joined name not detected: %+v", matches)
	}
}

func TestScanNoFalsePositive(t *testing.T) {
	s := NewScanner(corpus())
	if matches := s.Scan([]byte("totally benign telemetry payload 12345")); len(matches) != 0 {
		t.Fatalf("false positives: %+v", matches)
	}
	if matches := s.Scan(nil); matches != nil {
		t.Fatal("nil payload should yield nil")
	}
}

func TestScanDeduplicates(t *testing.T) {
	s := NewScanner(corpus())
	payload := []byte("74:da:38:1b:20:01 ... 74:da:38:1b:20:01")
	matches := s.Scan(payload)
	plainCount := 0
	for _, m := range matches {
		if m.Item.Kind == KindMAC && m.Encoding == "plain" {
			plainCount++
		}
	}
	if plainCount != 1 {
		t.Fatalf("plain MAC reported %d times", plainCount)
	}
}

func TestCorpusSkipsEmpty(t *testing.T) {
	c := NewCorpus(Item{KindEmail, "  "}, Item{KindEmail, "x@y.zz"})
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.Add(KindName, "")
	if c.Len() != 1 {
		t.Fatalf("Len after empty Add = %d", c.Len())
	}
	c.Add(KindName, "Ann")
	if c.Len() != 2 {
		t.Fatalf("Len after Add = %d", c.Len())
	}
}

func TestShortValuesNotSearched(t *testing.T) {
	c := NewCorpus(Item{KindUsername, "ab"}) // 2 chars: too short
	s := NewScanner(c)
	if matches := s.Scan([]byte("abababab")); len(matches) != 0 {
		t.Fatalf("short needle matched: %+v", matches)
	}
}

// ciphertextPayload is n seeded pseudo-random bytes, the byte mix of a
// TLS record body.
func ciphertextPayload(n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(b)
	return b
}

var benchMatches []Match

// BenchmarkScan scans one device-sized corpus over a ciphertext-like
// payload, which matches nothing and must not allocate, and over a
// plaintext JSON body that leaks the MAC address.
func BenchmarkScan(b *testing.B) {
	s := NewScanner(corpus())
	for _, bc := range []struct {
		name    string
		payload []byte
	}{
		{"ciphertext", ciphertextPayload(1400)},
		{"plaintext-json", []byte(`{"event":"status","device":{"mac":"74:DA:38:1B:20:01",` +
			`"fw":"2.0.14","uptime":86400,"rssi":-61},"cloud":"iot.example.net","token":` +
			`"9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"}`)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchMatches = s.Scan(bc.payload)
			}
		})
	}
}
