package intliot_test

import (
	"os"
	"testing"
	"time"

	intliot "github.com/neu-sns/intl-iot-go"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/ingest"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// throughputFloor is the checked-in perf gate for `make perfguard`:
// single-decode streaming must deliver at least this fraction of
// buffered throughput on the tiny export. The acceptance target is 0.90;
// measured on the reference machine the ratio is ~1.4–1.5 (364 vs
// 245 MB/s — the fold pass decodes once from a mapping while buffered
// copies every payload into slabs), so a regression to the floor means the
// single-decode path lost its entire advantage and then some.
const throughputFloor = 0.90

// noopFoldSink absorbs experiments without analysis cost, so the gate
// isolates source throughput (decode + sort + run dispatch + merge).
type noopFoldSink struct{}

type noopFoldUnit struct{}

func (noopFoldUnit) Fold(exp *testbed.Experiment)             { exp.Done() }
func (noopFoldSink) NewFoldUnit(bool) experiments.FoldUnit    { return noopFoldUnit{} }
func (noopFoldSink) MergeFoldUnit(bool, experiments.FoldUnit) {}

// TestStreamingThroughputFloor is the perf regression gate. Wall-clock
// measurements are meaningless on loaded CI machines, so it only runs
// when MONIOTR_PERFGUARD=1 (the `make perfguard` target sets it).
func TestStreamingThroughputFloor(t *testing.T) {
	if os.Getenv("MONIOTR_PERFGUARD") == "" {
		t.Skip("set MONIOTR_PERFGUARD=1 (make perfguard) to run the throughput gate")
	}

	cfg := intliot.Config{
		Seed:          1,
		AutomatedReps: 1,
		ManualReps:    1,
		PowerReps:     1,
		IdleHours:     map[string]float64{"US": 1, "GB": 1, "US->GB": 1, "GB->US": 1},
		VPN:           true,
	}
	s, err := intliot.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ingest.Export(dir, s.Pipeline().Runner()); err != nil {
		t.Fatal(err)
	}

	// Best-of-N wall time for each mode; the minimum is the least noisy
	// estimator of achievable throughput.
	const reps = 3
	best := func(run func() int64) (time.Duration, int64) {
		min, bytes := time.Duration(0), int64(0)
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			bytes = run()
			if d := time.Since(t0); min == 0 || d < min {
				min = d
			}
		}
		return min, bytes
	}

	buffered, bytes := best(func() int64 {
		src, err := ingest.Open(dir, ingest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		src.RunControlled(func(*testbed.Experiment) {})
		src.RunIdle(func(*testbed.Experiment) {})
		return src.Report().Bytes
	})
	single, _ := best(func() int64 {
		src, err := ingest.Open(dir, ingest.Options{Stream: true})
		if err != nil {
			t.Fatal(err)
		}
		src.RunSingleDecode(noopFoldSink{})
		return src.Report().Bytes
	})

	mbps := func(d time.Duration) float64 {
		return float64(bytes) / 1e6 / d.Seconds()
	}
	ratio := buffered.Seconds() / single.Seconds()
	t.Logf("buffered %.0f MB/s, single-decode %.0f MB/s, ratio %.2f (floor %.2f)",
		mbps(buffered), mbps(single), ratio, throughputFloor)
	if ratio < throughputFloor {
		t.Errorf("single-decode streaming at %.2f of buffered throughput, floor is %.2f",
			ratio, throughputFloor)
	}
}
