package ingest_test

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/ingest"
	"github.com/neu-sns/intl-iot-go/internal/pcapio"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// Example_streamingReplay ingests a minimal Mon(IoT)r-style capture tree
// through the single-decode fold pass: a single idle capture for the US
// Amcrest camera, identified by the <lab>/<device>/ directory
// convention. The capture holds no packets at all — device-hours still
// accrue for silent devices — which keeps the example deterministic.
func Example_streamingReplay() {
	check := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	root, err := os.MkdirTemp("", "captures")
	check(err)
	defer os.RemoveAll(root)

	// idle/us/amcrest-cam/000000.pcap — an empty capture — plus its
	// .labels sidecar marking one hour of idle recording.
	devDir := filepath.Join(root, "idle", "us", "amcrest-cam")
	check(os.MkdirAll(devDir, 0o755))
	f, err := os.Create(filepath.Join(devDir, "000000.pcap"))
	check(err)
	pw, err := pcapio.NewWriter(f, pcapio.WriterOptions{Nanosecond: true})
	check(err)
	check(pw.Flush())
	check(f.Close())
	lf, err := os.Create(filepath.Join(devDir, "000000.labels"))
	check(err)
	start := testbed.StudyEpoch
	check(pcapio.WriteLabels(lf, []pcapio.Label{{
		Start: start, End: start.Add(time.Hour), Experiment: "idle", Activity: "idle",
	}}))
	check(lf.Close())

	// Stream the tree: every file decodes once, straight into fold units
	// that keep only what they print, and the units merge in campaign
	// order.
	src, err := ingest.Open(root, ingest.Options{Stream: true})
	check(err)
	_, idle := src.RunSingleDecode(printSink{})
	fmt.Printf("replayed %d idle experiment(s)\n", idle.Experiments)
	fmt.Println(src.Report())
	// Output:
	// us/amcrest-cam idle 1h0m0s
	// replayed 1 idle experiment(s)
	// 1 files, 0 records (0 B) -> 1 experiments; skipped: 0 truncated, 0 unknown-device, 0 unlabeled pkts, 0 undecodable, 0 bad files
}

// printSink prints each folded experiment when its unit merges, which
// happens serially and in campaign order.
type printSink struct{}

type printUnit struct{ lines []string }

func (printSink) NewFoldUnit(bool) experiments.FoldUnit { return &printUnit{} }

func (printSink) MergeFoldUnit(_ bool, u experiments.FoldUnit) {
	for _, l := range u.(*printUnit).lines {
		fmt.Println(l)
	}
}

func (u *printUnit) Fold(e *testbed.Experiment) {
	u.lines = append(u.lines, fmt.Sprintf("%s %s %v", e.Device.ID(), e.Kind, e.End.Sub(e.Start)))
}
