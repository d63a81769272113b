package entropy

import (
	"github.com/neu-sns/intl-iot-go/internal/httpmsg"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/tlsmsg"
)

// FlowVerdict is the result of classifying one flow.
type FlowVerdict struct {
	Class Class
	// Method records how the verdict was reached: "tls", "quic", "http",
	// "dns", "ntp", "encoding:<name>", "entropy", "printable", or "empty".
	Method string
	// Entropy is the measured payload entropy when Method == "entropy".
	Entropy float64
	// Metrics is the full entropy family (Shannon, Rényi α∈{0.5,2},
	// Tsallis q=2) measured over the combined head payloads, filled for
	// every non-empty flow regardless of which method decided the class.
	Metrics Metrics
}

// headLimit caps the head payload read from each direction of a flow.
const headLimit = 4096

// Classifier runs the paper's per-flow pipeline. Its zero value is ready
// to use; it refills the same head-payload buffers on every call, so one
// Classifier must not be used by two goroutines at once.
type Classifier struct {
	up, down []byte
}

// Classify reproduces the paper's per-flow pipeline over the first
// headLimit payload bytes of each direction:
//
//  1. Wireshark-style protocol identification: TLS and QUIC are
//     encrypted; DNS, NTP and HTTP with textual bodies are unencrypted.
//  2. Known encodings (media/compression magic) are unencrypted media.
//  3. Otherwise classify by normalized byte entropy of the payload.
//
// One 256-bin histogram over both heads yields the printable share, the
// entropy thresholds' input and the verdict's metric family.
func (c *Classifier) Classify(f *netx.Flow, t Thresholds) FlowVerdict {
	c.up, c.down = f.AppendHeads(c.up[:0], c.down[:0], headLimit)
	up, down := c.up, c.down
	if len(up) == 0 && len(down) == 0 {
		return FlowVerdict{Class: ClassUnknown, Method: "empty"}
	}
	var counts [256]int
	ms := metricsFromCounts(&counts, histogram(&counts, up, down))
	v := classifyHeads(f, t, up, down, &counts, ms)
	v.Metrics = ms
	return v
}

// classifyHeads runs the pipeline over non-empty head payloads, given
// their combined byte histogram and its metric family.
func classifyHeads(f *netx.Flow, t Thresholds, up, down []byte, counts *[256]int, ms Metrics) FlowVerdict {
	// Step 1: protocol identification.
	if tlsmsg.LooksLikeTLS(up) || tlsmsg.LooksLikeTLS(down) {
		return FlowVerdict{Class: ClassEncrypted, Method: "tls"}
	}
	if isQUIC(f, up) {
		return FlowVerdict{Class: ClassEncrypted, Method: "quic"}
	}
	if isDNS(f) {
		return FlowVerdict{Class: ClassUnencrypted, Method: "dns"}
	}
	if isNTP(f) {
		return FlowVerdict{Class: ClassUnencrypted, Method: "ntp"}
	}
	if httpmsg.LooksLikeHTTPRequest(up) || httpmsg.LooksLikeHTTPResponse(down) {
		// HTTP framing is plaintext, but bodies may be media (step 2) or
		// even encrypted blobs tunnelled over HTTP; classify the body.
		body := httpBody(up, down)
		if len(body) >= t.MinPayload {
			if enc, ok := DetectEncoding(body); ok {
				return FlowVerdict{Class: ClassMedia, Method: "encoding:" + enc}
			}
			if c := t.ClassifyEntropy(body); c == ClassEncrypted {
				return FlowVerdict{Class: ClassEncrypted, Method: "http-encrypted-body", Entropy: Shannon(body)}
			}
		}
		return FlowVerdict{Class: ClassUnencrypted, Method: "http"}
	}

	// Step 2: encodings.
	for _, b := range [][]byte{up, down} {
		if enc, ok := DetectEncoding(b); ok {
			return FlowVerdict{Class: ClassMedia, Method: "encoding:" + enc}
		}
	}

	// Step 3: entropy over the combined payload.
	n := len(up) + len(down)
	if mostlyPrintable(counts, n, 0.95) {
		return FlowVerdict{Class: ClassUnencrypted, Method: "printable"}
	}
	class := ClassUnknown
	if n >= t.MinPayload {
		class = t.bucket(ms.Get(t.Metric))
	}
	return FlowVerdict{Class: class, Method: "entropy", Entropy: ms.Shannon}
}

func isQUIC(f *netx.Flow, up []byte) bool {
	if f.Key.Proto != netx.ProtoUDP {
		return false
	}
	port := f.Responder.Port
	if port != 443 && port != 80 {
		return false
	}
	// QUIC long header: first byte has the high bit set.
	return len(up) > 0 && up[0]&0x80 != 0
}

func isDNS(f *netx.Flow) bool {
	return f.Key.Proto == netx.ProtoUDP &&
		(f.Responder.Port == 53 || f.Initiator.Port == 53 ||
			f.Responder.Port == 5353 || f.Initiator.Port == 5353)
}

func isNTP(f *netx.Flow) bool {
	return f.Key.Proto == netx.ProtoUDP &&
		(f.Responder.Port == 123 || f.Initiator.Port == 123)
}

func httpBody(up, down []byte) []byte {
	if resp, err := httpmsg.ParseResponse(down); err == nil && len(resp.Body) > 0 {
		return resp.Body
	}
	if req, err := httpmsg.ParseRequest(up); err == nil && len(req.Body) > 0 {
		return req.Body
	}
	return nil
}
