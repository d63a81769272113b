package entropy

import "math"

// Shannon computes the normalized Shannon byte entropy of b in [0, 1]:
// the entropy of the empirical byte distribution divided by 8 bits. An
// empty input has entropy 0.
func Shannon(b []byte) float64 {
	if len(b) == 0 {
		return 0
	}
	var counts [256]int
	for _, c := range b {
		counts[c]++
	}
	n := float64(len(b))
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h / 8
}

// Class is the encryption classification of a payload or flow.
type Class int

const (
	// ClassUnknown marks content whose entropy falls between the
	// thresholds (0.4–0.8): undetermined encryption status.
	ClassUnknown Class = iota
	// ClassEncrypted marks content identified as encrypted by protocol
	// (TLS/QUIC) or by entropy > 0.8.
	ClassEncrypted
	// ClassUnencrypted marks plaintext: recognized cleartext protocols or
	// entropy < 0.4.
	ClassUnencrypted
	// ClassMedia marks recognized media/compressed encodings; the paper
	// treats these as unencrypted but excludes them from the entropy
	// analysis because their entropy overlaps ciphertext (§5.1).
	ClassMedia
)

// String implements fmt.Stringer using the paper's table glyphs.
func (c Class) String() string {
	switch c {
	case ClassEncrypted:
		return "encrypted"
	case ClassUnencrypted:
		return "unencrypted"
	case ClassMedia:
		return "media"
	default:
		return "unknown"
	}
}

// Thresholds carries the tunable classification cut points so the
// threshold ablation (DESIGN.md) can sweep alternatives.
type Thresholds struct {
	// Encrypted is the lower bound for "likely encrypted" (paper: 0.8).
	Encrypted float64
	// Unencrypted is the upper bound for "likely unencrypted" (paper: 0.4).
	Unencrypted float64
	// MinPayload is the minimum payload size to attempt entropy
	// classification; tiny payloads have unstable empirical entropy.
	MinPayload int
	// Metric selects which member of the entropy family (metrics.go) the
	// cut points apply to. The zero value is MetricShannon — the §5
	// default the paper's 0.4/0.8 thresholds were validated against —
	// so existing Thresholds literals keep their behaviour bit for bit.
	Metric Metric
}

// PaperThresholds are the thresholds used throughout the paper.
var PaperThresholds = Thresholds{Encrypted: 0.8, Unencrypted: 0.4, MinPayload: 16}

// ClassifyEntropy applies only the entropy thresholds, evaluated on the
// configured Metric (Shannon unless overridden).
func (t Thresholds) ClassifyEntropy(b []byte) Class {
	if len(b) < t.MinPayload {
		return ClassUnknown
	}
	if t.Metric == MetricShannon {
		return t.bucket(Shannon(b))
	}
	return t.bucket(MeasureMetrics(b).Get(t.Metric))
}

// bucket applies the cut points to one metric value.
func (t Thresholds) bucket(h float64) Class {
	switch {
	case h > t.Encrypted:
		return ClassEncrypted
	case h < t.Unencrypted:
		return ClassUnencrypted
	default:
		return ClassUnknown
	}
}

// encoding magics for media and compressed content, per §5.1: "We search
// for encoding-specific bytes in headers of such flows, and mark any
// traffic that contains them as unencrypted."
type magic struct {
	name   string
	prefix []byte
}

var magics = []magic{
	{"gzip", []byte{0x1f, 0x8b}},
	{"zlib", []byte{0x78, 0x9c}},
	{"zlib-best", []byte{0x78, 0xda}},
	{"jpeg", []byte{0xff, 0xd8, 0xff}},
	{"png", []byte{0x89, 'P', 'N', 'G', 0x0d, 0x0a, 0x1a, 0x0a}},
	{"gif", []byte("GIF8")},
	{"mp4", []byte{0x00, 0x00, 0x00, 0x18, 'f', 't', 'y', 'p'}},
	{"mp4-20", []byte{0x00, 0x00, 0x00, 0x20, 'f', 't', 'y', 'p'}},
	{"ebml", []byte{0x1a, 0x45, 0xdf, 0xa3}}, // Matroska/WebM
	{"mpegts", []byte{0x47, 0x40}},
	{"adts", []byte{0xff, 0xf1}}, // AAC
	{"mp3", []byte("ID3")},
	{"flv", []byte("FLV")},
	{"h264-annexb", []byte{0x00, 0x00, 0x00, 0x01, 0x67}},
	{"zip", []byte{0x50, 0x4b, 0x03, 0x04}},
}

// DetectEncoding reports a recognized media/compressed encoding name for
// payloads starting with a known magic.
func DetectEncoding(b []byte) (string, bool) {
	for _, m := range magics {
		if len(b) >= len(m.prefix) && string(b[:len(m.prefix)]) == string(m.prefix) {
			return m.name, true
		}
	}
	return "", false
}

// IsMostlyPrintable reports whether at least frac of b is printable ASCII
// or common whitespace — a strong plaintext signal used as a cheap
// pre-filter before entropy.
func IsMostlyPrintable(b []byte, frac float64) bool {
	var counts [256]int
	return mostlyPrintable(&counts, histogram(&counts, b), frac)
}

// mostlyPrintable applies IsMostlyPrintable's rule to a byte histogram
// of n bytes.
func mostlyPrintable(counts *[256]int, n int, frac float64) bool {
	if n == 0 {
		return false
	}
	printable := counts['\t'] + counts['\n'] + counts['\r']
	for _, c := range counts[0x20:0x7f] {
		printable += c
	}
	return float64(printable)/float64(n) >= frac
}
