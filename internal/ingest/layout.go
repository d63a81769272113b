package ingest

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/neu-sns/intl-iot-go/internal/analysis"
	"github.com/neu-sns/intl-iot-go/internal/pcapio"
	"github.com/neu-sns/intl-iot-go/internal/report"
)

// Layout maps a capture tree's on-disk conventions onto ingest's
// campaign model. The native Mon(IoT)r convention — ".pcap" files with
// tab-separated ".labels" sidecars under "<lab>/<device>/" directories —
// is the nil default; dataset adapters (internal/dataset) provide
// foreign layouts so public IoT datasets in other shapes flow through
// the identical decode/identify/slice path, in both ingest shapes
// (buffered, single-decode fold) and for any worker count.
type Layout interface {
	// IsCapture reports whether the root-relative path names a capture
	// file this layout wants ingested.
	IsCapture(rel string) bool
	// Labels loads the experiment windows for a capture. Returning an
	// empty slice (or an error) marks the capture unlabeled; the packets
	// are then counted and skipped, or — with Options.InferLabels —
	// window inference takes over.
	Labels(root, rel string) ([]pcapio.Label, error)
	// DeviceHint returns a "<lab>/<device>" instance-ID hint for the
	// capture ("" = none). It seeds lab scoping for evidence-based
	// identification and serves as the path-convention fallback tier.
	DeviceHint(rel string) string
}

// nativeLayout is the Mon(IoT)r convention every exporter in this repo
// writes.
type nativeLayout struct{}

func (nativeLayout) IsCapture(rel string) bool { return strings.HasSuffix(rel, ".pcap") }

func (nativeLayout) Labels(root, rel string) ([]pcapio.Label, error) {
	path := filepath.Join(root, strings.TrimSuffix(rel, ".pcap")+".labels")
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pcapio.ReadLabels(f)
}

func (nativeLayout) DeviceHint(rel string) string {
	// The two path segments above the file name form the instance ID
	// ("us/amcrest-cam").
	parts := strings.Split(filepath.ToSlash(filepath.Dir(rel)), "/")
	if len(parts) >= 2 {
		return parts[len(parts)-2] + "/" + parts[len(parts)-1]
	}
	return ""
}

// InferredLabel is one per-device slice of the label-inference tally:
// how many packets and synthesized windows were attributed to a device,
// by which identification method, at which confidence tier.
type InferredLabel struct {
	Device     string // instance ID ("us/amcrest-cam")
	Method     string // analysis.IdentifyBy* or "path"
	Confidence string // high | medium | low
	Packets    int
	Windows    int
}

// inferConfidence maps an identification method to its confidence tier:
// an exact catalog MAC or a device-asserted hostname is ground truth in
// all but adversarial captures; a unique vendor OUI or an explicit
// directory hint narrows to the model but not the unit; a DNS
// fingerprint is circumstantial.
func inferConfidence(method string) string {
	switch method {
	case analysis.IdentifyByMAC, analysis.IdentifyByHostname:
		return "high"
	case analysis.IdentifyByOUI, "path":
		return "medium"
	default:
		return "low"
	}
}

// mergeInferred folds src into dst, coalescing rows with the same
// (device, method) and keeping the result sorted — so the merged tally
// is identical no matter which order per-file results arrive in.
func mergeInferred(dst, src []InferredLabel) []InferredLabel {
	if len(src) == 0 {
		return dst
	}
	out := append(dst, src...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Device != out[j].Device {
			return out[i].Device < out[j].Device
		}
		return out[i].Method < out[j].Method
	})
	merged := out[:0]
	for _, l := range out {
		if n := len(merged); n > 0 && merged[n-1].Device == l.Device && merged[n-1].Method == l.Method {
			merged[n-1].Packets += l.Packets
			merged[n-1].Windows += l.Windows
			continue
		}
		merged = append(merged, l)
	}
	return merged
}

// LabelTable renders the inferred-label tally as the "ingest-labels"
// report table. It returns nil when nothing was inferred, so fully
// labeled campaigns produce the same report document with or without
// inference enabled.
func (r Report) LabelTable() *report.Table {
	if len(r.Inferred) == 0 {
		return nil
	}
	t := &report.Table{
		Title:   "Inferred labels (unlabeled traffic attributed by identification evidence)",
		Headers: []string{"device", "method", "confidence", "packets", "windows"},
	}
	for _, l := range r.Inferred {
		t.AddRow(l.Device, l.Method, l.Confidence,
			strconv.Itoa(l.Packets), strconv.Itoa(l.Windows))
	}
	return t
}
