package intliot

import (
	"testing"

	"github.com/neu-sns/intl-iot-go/internal/analysis"
	"github.com/neu-sns/intl-iot-go/internal/ingest"
	"github.com/neu-sns/intl-iot-go/internal/ml"
)

// Per-collector timing on every delivery path: a study over the
// synthesis runner and one over a streamed capture tree both count
// every collector call. The controlled leg visits degrade, dest, enc,
// content and identify; the idle leg visits degrade, dest, enc and the
// detector.
func TestCollectorVisitsEveryPath(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign round trips skipped in -short")
	}
	inferCfg := analysis.InferConfig{CV: ml.CVConfig{
		TrainFrac: 0.7, Repeats: 2, Seed: 42,
		Forest: ml.ForestConfig{NumTrees: 5},
	}}
	check := func(path string, s *Study, reg *Metrics) {
		t.Helper()
		s.SetInferenceConfig(inferCfg)
		s.SetObs(reg)
		s.Run()
		p := s.Pipeline()
		ctl, idle := int64(p.Stats.Experiments), int64(p.IdleStats.Experiments)
		if ctl == 0 || idle == 0 {
			t.Fatalf("%s: %d controlled and %d idle experiments; the check is vacuous", path, ctl, idle)
		}
		want := map[string]int64{
			"degrade": ctl + idle, "dest": ctl + idle, "enc": ctl + idle,
			"content": ctl, "identify": ctl, "detector": idle,
		}
		for name, n := range want {
			if got := reg.Counter("collector_visits." + name).Value(); got != n {
				t.Errorf("%s: collector_visits.%s = %d, want %d", path, name, got, n)
			}
			if ns := reg.Counter("collector_visit_ns." + name).Value(); ns <= 0 {
				t.Errorf("%s: collector_visit_ns.%s = %d, want > 0", path, name, ns)
			}
		}
	}

	direct, err := NewStudy(tinyFaultConfig("", 0))
	if err != nil {
		t.Fatal(err)
	}
	check("runner", direct, NewMetrics())

	dir := t.TempDir()
	if err := ingest.Export(dir, direct.Pipeline().Runner()); err != nil {
		t.Fatal(err)
	}
	src, err := ingest.Open(dir, ingest.Options{Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	check("ingest stream", NewStudyFromSource(src), NewMetrics())
}
