package intliot

import (
	"testing"

	"github.com/neu-sns/intl-iot-go/internal/analysis"
	"github.com/neu-sns/intl-iot-go/internal/ingest"
	"github.com/neu-sns/intl-iot-go/internal/ml"
)

// The reproducibility contract of the reshape engine, end to end through
// the public API:
//
//   - an empty stack or a zero budget changes nothing — the defended
//     study renders byte-identically to the undefended one;
//   - a fixed (stack, seed, budget) renders byte-identically run to run
//     and for any -analysis-workers value;
//   - a different seed renders differently;
//   - replaying a clean exported campaign through the same engine —
//     buffered or streamed — renders byte-identically to defending the
//     synthesis directly, because transform decisions key on fields that
//     survive the export/ingest round trip.
func TestReshapeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full studies skipped in -short")
	}
	inferCfg := analysis.InferConfig{CV: ml.CVConfig{
		TrainFrac: 0.7, Repeats: 2, Seed: 42,
		Forest: ml.ForestConfig{NumTrees: 5},
	}}
	baseCfg := func() Config {
		cfg := tinyFaultConfig("", 0)
		cfg.VPN = true
		return cfg
	}
	run := func(cfg Config, workers int) string {
		t.Helper()
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.SetInferenceConfig(inferCfg)
		s.SetAnalysisWorkers(workers)
		s.Run()
		return renderAll(s)
	}

	baseline := run(baseCfg(), 0)

	empty := baseCfg()
	empty.Reshape = "none"
	if run(empty, 0) != baseline {
		t.Error("empty defense stack changed the tables")
	}

	zero := baseCfg()
	zero.Reshape = "pad,shape,dummy,vpn"
	zero.ReshapeSeed = 7
	zero.ReshapeBudget = 0
	if run(zero, 0) != baseline {
		t.Error("zero-budget defense stack changed the tables")
	}

	defended := baseCfg()
	defended.Reshape = "pad,shape,dummy,vpn"
	defended.ReshapeSeed = 7
	defended.ReshapeBudget = 0.3
	want := run(defended, 0)
	if want == baseline {
		t.Error("defended study identical to clean run; defenses had no effect")
	}
	for _, workers := range []int{1, 2, 5} {
		if got := run(defended, workers); got != want {
			t.Errorf("workers=%d: defended study output differs", workers)
		}
	}

	// Note on seeds: a different ReshapeSeed produces a different wire
	// (internal/reshape's TestDifferentSeedsDiffer proves it packet by
	// packet) but not necessarily different *tables* — the §4–§6
	// aggregates are deliberately insensitive to fill-byte content,
	// ephemeral ports, and which of a device's existing endpoints a
	// cover flow borrows. So the seed check lives at the packet layer,
	// and the table layer asserts only reproducibility.

	// Defended replay: export the clean campaign, re-ingest it, and apply
	// the same engine at delivery. The wire the analyses see must be
	// byte-for-byte the wire the defended synthesis produced.
	clean, err := NewStudy(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	clean.SetInferenceConfig(inferCfg)
	clean.Run()
	dir := t.TempDir()
	if err := ingest.Export(dir, clean.Pipeline().Runner()); err != nil {
		t.Fatal(err)
	}
	replay := func(opts ingest.Options) string {
		t.Helper()
		src, err := ingest.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewReshapeEngine(defended)
		if err != nil {
			t.Fatal(err)
		}
		s := NewStudyFromSource(src)
		s.SetDefense(eng)
		s.SetInferenceConfig(inferCfg)
		s.Run()
		return renderAll(s)
	}
	if got := replay(ingest.Options{}); got != want {
		t.Error("defended buffered replay differs from defended synthesis")
	}
	if got := replay(ingest.Options{Stream: true}); got != want {
		t.Error("defended streamed replay differs from defended synthesis")
	}
}
