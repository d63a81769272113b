package entropy

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/tlsmsg"
)

func TestShannonExtremes(t *testing.T) {
	if got := Shannon(nil); got != 0 {
		t.Errorf("Shannon(nil) = %v", got)
	}
	if got := Shannon(bytes.Repeat([]byte{7}, 1000)); got != 0 {
		t.Errorf("Shannon(constant) = %v", got)
	}
	// All 256 byte values equally often: entropy exactly 1.
	all := make([]byte, 256*4)
	for i := range all {
		all[i] = byte(i % 256)
	}
	if got := Shannon(all); got < 0.999 || got > 1.001 {
		t.Errorf("Shannon(uniform) = %v", got)
	}
}

func TestShannonRandomVsText(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 4096)
	rng.Read(random)
	hRand := Shannon(random)
	if hRand < 0.95 {
		t.Errorf("Shannon(random 4K) = %v, want > 0.95", hRand)
	}
	text := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 100))
	hText := Shannon(text)
	if hText > 0.6 {
		t.Errorf("Shannon(english) = %v, want < 0.6", hText)
	}
	if hText >= hRand {
		t.Error("text entropy should be below random entropy")
	}
}

func TestShannonBoundsProperty(t *testing.T) {
	f := func(b []byte) bool {
		h := Shannon(b)
		return h >= 0 && h <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyEntropyThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	random := make([]byte, 2048)
	rng.Read(random)
	if c := PaperThresholds.ClassifyEntropy(random); c != ClassEncrypted {
		t.Errorf("random bytes classified %v", c)
	}
	text := []byte(strings.Repeat("aaaabbbb", 100))
	if c := PaperThresholds.ClassifyEntropy(text); c != ClassUnencrypted {
		t.Errorf("low-entropy text classified %v", c)
	}
	if c := PaperThresholds.ClassifyEntropy([]byte("tiny")); c != ClassUnknown {
		t.Errorf("short payload classified %v", c)
	}
}

func TestDetectEncoding(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte("payload"))
	zw.Close()
	if name, ok := DetectEncoding(gz.Bytes()); !ok || name != "gzip" {
		t.Errorf("gzip: %q %v", name, ok)
	}
	if name, ok := DetectEncoding([]byte{0xff, 0xd8, 0xff, 0xe0}); !ok || name != "jpeg" {
		t.Errorf("jpeg: %q %v", name, ok)
	}
	if _, ok := DetectEncoding([]byte("plain text")); ok {
		t.Error("plain text misdetected")
	}
	if _, ok := DetectEncoding(nil); ok {
		t.Error("nil misdetected")
	}
}

func TestIsMostlyPrintable(t *testing.T) {
	if !IsMostlyPrintable([]byte("GET / HTTP/1.1\r\n"), 0.95) {
		t.Error("HTTP head should be printable")
	}
	if IsMostlyPrintable([]byte{0x00, 0x01, 0x02, 0x03}, 0.95) {
		t.Error("binary should not be printable")
	}
	if IsMostlyPrintable(nil, 0.5) {
		t.Error("empty should not be printable")
	}
	// The printable set is exactly 0x20–0x7e plus tab, LF and CR.
	for c := 0; c < 256; c++ {
		want := (c >= 0x20 && c < 0x7f) || c == '\t' || c == '\n' || c == '\r'
		if got := IsMostlyPrintable([]byte{byte(c)}, 1); got != want {
			t.Errorf("byte %#x printable = %v, want %v", c, got, want)
		}
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		ClassEncrypted:   "encrypted",
		ClassUnencrypted: "unencrypted",
		ClassMedia:       "media",
		ClassUnknown:     "unknown",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

// --- flow classification ---

var flowTime = time.Date(2019, 4, 1, 12, 0, 0, 0, time.UTC)

func mkFlow(t *testing.T, proto uint8, dstPort uint16, up, down []byte) *netx.Flow {
	t.Helper()
	tbl := netx.NewFlowTable()
	mk := func(src, dst string, sp, dp uint16, payload []byte) *netx.Packet {
		p := &netx.Packet{
			Meta: netx.CaptureInfo{Timestamp: flowTime, Length: 60 + len(payload)},
			Eth:  netx.Ethernet{EtherType: netx.EtherTypeIPv4},
			IPv4: &netx.IPv4{TTL: 64, Protocol: proto,
				Src: netx.MustParseAddr(src), Dst: netx.MustParseAddr(dst)},
			Payload: payload,
		}
		if proto == netx.ProtoTCP {
			p.TCP = &netx.TCP{SrcPort: sp, DstPort: dp, Flags: netx.TCPAck}
		} else {
			p.UDP = &netx.UDP{SrcPort: sp, DstPort: dp}
		}
		return p
	}
	if up != nil {
		tbl.Add(mk("192.168.10.15", "52.1.2.3", 49152, dstPort, up))
	}
	if down != nil {
		tbl.Add(mk("52.1.2.3", "192.168.10.15", dstPort, 49152, down))
	}
	flows := tbl.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %d", len(flows))
	}
	return flows[0]
}

func TestClassifyFlowTLS(t *testing.T) {
	ch := &tlsmsg.ClientHello{ServerName: "api.example.com"}
	f := mkFlow(t, netx.ProtoTCP, 443, ch.Marshal(), nil)
	v := new(Classifier).Classify(f, PaperThresholds)
	if v.Class != ClassEncrypted || v.Method != "tls" {
		t.Errorf("verdict: %+v", v)
	}
}

func TestClassifyFlowHTTP(t *testing.T) {
	f := mkFlow(t, netx.ProtoTCP, 80,
		[]byte("GET /state HTTP/1.1\r\nHost: dev.local\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\non"))
	v := new(Classifier).Classify(f, PaperThresholds)
	if v.Class != ClassUnencrypted || v.Method != "http" {
		t.Errorf("verdict: %+v", v)
	}
}

func TestClassifyFlowHTTPMediaBody(t *testing.T) {
	body := append([]byte{0xff, 0xd8, 0xff, 0xe0}, bytes.Repeat([]byte{0x37, 0x99, 0x21}, 50)...)
	resp := []byte("HTTP/1.1 200 OK\r\nContent-Type: image/jpeg\r\n\r\n")
	resp = append(resp, body...)
	f := mkFlow(t, netx.ProtoTCP, 80, []byte("GET /snap.jpg HTTP/1.1\r\nHost: cam\r\n\r\n"), resp)
	v := new(Classifier).Classify(f, PaperThresholds)
	if v.Class != ClassMedia {
		t.Errorf("verdict: %+v", v)
	}
}

func TestClassifyFlowDNSAndNTP(t *testing.T) {
	f := mkFlow(t, netx.ProtoUDP, 53, []byte{0x12, 0x34, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0}, nil)
	if v := new(Classifier).Classify(f, PaperThresholds); v.Class != ClassUnencrypted || v.Method != "dns" {
		t.Errorf("dns verdict: %+v", v)
	}
	ntp := make([]byte, 48)
	ntp[0] = 0x1b
	f = mkFlow(t, netx.ProtoUDP, 123, ntp, nil)
	if v := new(Classifier).Classify(f, PaperThresholds); v.Class != ClassUnencrypted || v.Method != "ntp" {
		t.Errorf("ntp verdict: %+v", v)
	}
}

func TestClassifyFlowQUIC(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	payload := make([]byte, 1200)
	rng.Read(payload)
	payload[0] = 0xc3 // long header
	f := mkFlow(t, netx.ProtoUDP, 443, payload, nil)
	if v := new(Classifier).Classify(f, PaperThresholds); v.Class != ClassEncrypted || v.Method != "quic" {
		t.Errorf("quic verdict: %+v", v)
	}
}

func TestClassifyFlowEntropyFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	payload := make([]byte, 2048)
	rng.Read(payload)
	payload[0] = 0x00 // avoid QUIC/TLS detection on TCP port 8883
	f := mkFlow(t, netx.ProtoTCP, 8883, payload, nil)
	v := new(Classifier).Classify(f, PaperThresholds)
	if v.Class != ClassEncrypted || v.Method != "entropy" {
		t.Errorf("verdict: %+v", v)
	}
	if v.Entropy < 0.9 {
		t.Errorf("entropy = %v", v.Entropy)
	}
}

func TestClassifyFlowEmpty(t *testing.T) {
	f := mkFlow(t, netx.ProtoTCP, 443, []byte{}, nil)
	// zero-length payload packet still creates a flow with no bytes
	v := new(Classifier).Classify(f, PaperThresholds)
	if v.Method != "empty" {
		t.Errorf("verdict: %+v", v)
	}
}

func TestClassifyFlowMediaMagic(t *testing.T) {
	stream := append([]byte{0x00, 0x00, 0x00, 0x18, 'f', 't', 'y', 'p'}, bytes.Repeat([]byte{9, 91, 182}, 100)...)
	f := mkFlow(t, netx.ProtoTCP, 8554, stream, nil)
	v := new(Classifier).Classify(f, PaperThresholds)
	if v.Class != ClassMedia {
		t.Errorf("verdict: %+v", v)
	}
}

// TestClassifierReuseAndHistogram classifies a mix of flows with one
// reused Classifier and checks every verdict against a fresh Classifier
// and against the per-direction payload copies: the metric family equals
// MeasureMetrics2 over them and the entropy verdict's Shannon value
// equals Shannon over their concatenation, bit for bit.
func TestClassifierReuseAndHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		b[0] = 0x00 // keep TLS/QUIC/magic detection out of the way
		return b
	}
	text := bytes.Repeat([]byte("state=on&rssi=-42&"), 300) // 5,400 bytes: past the head cap
	mixed := append(bytes.Repeat([]byte("k=v&"), 90), random(120)...)
	flows := []*netx.Flow{
		mkFlow(t, netx.ProtoTCP, 8883, random(5000), random(300)),
		mkFlow(t, netx.ProtoTCP, 8883, text, nil),
		mkFlow(t, netx.ProtoTCP, 8883, mixed, mixed[:40]),
		mkFlow(t, netx.ProtoTCP, 8883, random(10), nil),
		mkFlow(t, netx.ProtoUDP, 9999, nil, random(700)),
		mkFlow(t, netx.ProtoTCP, 443, []byte{}, nil),
	}
	var reused Classifier
	for i, f := range flows {
		got := reused.Classify(f, PaperThresholds)
		if want := new(Classifier).Classify(f, PaperThresholds); got != want {
			t.Errorf("flow %d: reused classifier %+v, fresh %+v", i, got, want)
		}
		if got.Method == "empty" {
			continue
		}
		up, down := f.PayloadUp(4096), f.PayloadDown(4096)
		if want := MeasureMetrics2(up, down); got.Metrics != want {
			t.Errorf("flow %d: metrics %+v, want %+v", i, got.Metrics, want)
		}
		if got.Method == "entropy" {
			if want := Shannon(append(append([]byte(nil), up...), down...)); got.Entropy != want {
				t.Errorf("flow %d: entropy %v, want %v", i, got.Entropy, want)
			}
		}
	}
}
