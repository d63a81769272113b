package ingest_test

import (
	"strings"
	"testing"

	intliot "github.com/neu-sns/intl-iot-go"
	"github.com/neu-sns/intl-iot-go/internal/analysis"
	"github.com/neu-sns/intl-iot-go/internal/ingest"
	"github.com/neu-sns/intl-iot-go/internal/ml"
)

// The fold-order property behind single-decode streaming: the order
// decode workers finish files must never leak into any table. The
// DispatchSeed knob shuffles the file dispatch order outright — a much
// harsher scramble than scheduler jitter — and every (seed, worker
// count) combination must render the full report document byte-
// identically to the buffered serial ingest.
func TestFoldOrderInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign round trips skipped in -short")
	}
	cfg := intliot.Config{
		Seed:          1,
		AutomatedReps: 1,
		ManualReps:    1,
		PowerReps:     1,
		IdleHours:     map[string]float64{"US": 0.5, "GB": 0.5},
		VPN:           true,
	}
	inferCfg := analysis.InferConfig{CV: ml.CVConfig{
		TrainFrac: 0.7, Repeats: 2, Seed: 42,
		Forest: ml.ForestConfig{NumTrees: 5},
	}}

	direct, err := intliot.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct.SetInferenceConfig(inferCfg)
	direct.Run()
	dir := t.TempDir()
	if err := ingest.Export(dir, direct.Pipeline().Runner()); err != nil {
		t.Fatal(err)
	}

	render := func(opts ingest.Options, workers int) string {
		src, err := ingest.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		s := intliot.NewStudyFromSource(src)
		s.SetInferenceConfig(inferCfg)
		s.SetAnalysisWorkers(workers)
		s.Run()
		var sb strings.Builder
		if err := s.ReportDocument().RenderJSON(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	buffered := render(ingest.Options{}, 1)
	for _, seed := range []int64{3, 11} {
		for _, workers := range []int{1, 2, 5} {
			got := render(ingest.Options{Stream: true, DispatchSeed: seed}, workers)
			if got != buffered {
				t.Errorf("seed=%d workers=%d: single-decode report differs from buffered serial ingest",
					seed, workers)
			}
		}
	}
	// The shuffle must also be harmless to the buffered load (its
	// collect step sorts afterwards).
	if got := render(ingest.Options{DispatchSeed: 7}, 1); got != buffered {
		t.Error("buffered ingest output depends on file dispatch order")
	}
}
