package intliot

import (
	"reflect"
	"testing"

	"github.com/neu-sns/intl-iot-go/internal/analysis"
	"github.com/neu-sns/intl-iot-go/internal/ingest"
	"github.com/neu-sns/intl-iot-go/internal/ml"
)

// The streaming-ingest guarantee through the public API: folding an
// exported campaign into the pipeline during its one decode pass — at
// any worker count — renders every report table byte-identically to the
// buffer-everything ingest, and the ingestion report matches count for
// count.
func TestStreamingIngestByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign round trips skipped in -short")
	}
	cfg := tinyFaultConfig("", 0)
	cfg.VPN = true
	inferCfg := analysis.InferConfig{CV: ml.CVConfig{
		TrainFrac: 0.7, Repeats: 2, Seed: 42,
		Forest: ml.ForestConfig{NumTrees: 5},
	}}

	direct, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct.SetInferenceConfig(inferCfg)
	direct.Run()
	dir := t.TempDir()
	if err := ingest.Export(dir, direct.Pipeline().Runner()); err != nil {
		t.Fatal(err)
	}

	run := func(opts ingest.Options, workers int) (string, ingest.Report, int64) {
		src, err := ingest.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		s := NewStudyFromSource(src)
		s.SetInferenceConfig(inferCfg)
		s.SetAnalysisWorkers(workers)
		reg := NewMetrics()
		s.SetObs(reg)
		s.Run()
		return renderAll(s), src.Report(), reg.Counter("ingest_decode_passes_total").Value()
	}

	buffered, bufRep, bufPasses := run(ingest.Options{}, 0)
	if bufRep.Experiments == 0 {
		t.Fatal("no experiments ingested")
	}
	if bufPasses != 1 {
		t.Errorf("buffered ingest ran %d decode passes, want 1", bufPasses)
	}

	// Single-decode streaming: the fold path must engage — exactly one
	// decode pass — and stay byte-identical for any worker count.
	for _, workers := range []int{1, 2, 5} {
		got, rep, passes := run(ingest.Options{Stream: true}, workers)
		if got != buffered {
			t.Errorf("workers=%d: single-decode study output differs from buffered ingest", workers)
		}
		if !reflect.DeepEqual(rep, bufRep) {
			t.Errorf("workers=%d: single-decode report = %+v, buffered = %+v", workers, rep, bufRep)
		}
		if passes != 1 {
			t.Errorf("workers=%d: single-decode ran %d decode passes, want 1", workers, passes)
		}
	}
}
