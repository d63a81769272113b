package analysis_test

import (
	"testing"

	"github.com/neu-sns/intl-iot-go/internal/analysis"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/ingest"
	"github.com/neu-sns/intl-iot-go/internal/ml"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/reshape"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// wireTotals sums the packet and byte totals src delivers on each leg
// after eng reshapes every experiment: what an observer of the defended
// link would count.
func wireTotals(src analysis.Source, eng *reshape.Engine) (ctl, idle experiments.Stats) {
	sum := func(st *experiments.Stats) experiments.Visitor {
		return func(exp *testbed.Experiment) {
			eng.Transform(exp)
			st.Packets += int64(len(exp.Packets))
			st.Bytes += int64(exp.Bytes())
		}
	}
	src.RunControlled(sum(&ctl))
	src.RunIdle(sum(&idle))
	return ctl, idle
}

// The defense is the pipeline's prep step: a defended Run reports the
// post-transform wire totals on both fold drivers — foldReplay for the
// synthesis runner, RunSingleDecode for a streaming ingest source — and
// a defended RunUncontrolled reshapes every experiment of the §7.3 leg
// before the detector sees it.
func TestDefenseReshapesEveryLeg(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign and export")
	}
	cfg := experiments.Config{
		Seed:             1,
		AutomatedReps:    1,
		ManualReps:       1,
		PowerReps:        1,
		IdleHours:        map[string]float64{"US": 1, "GB": 1},
		UncontrolledDays: 1,
	}
	newRunner := func() *experiments.Runner {
		r, err := experiments.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	eng, err := reshape.New(reshape.Config{
		Stack: []string{reshape.TransformPad, reshape.TransformDummy}, Seed: 7, Budget: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	icfg := analysis.InferConfig{CV: ml.CVConfig{
		TrainFrac: 0.7, Repeats: 2, Seed: 42,
		Forest: ml.ForestConfig{NumTrees: 4},
	}}
	// run folds src through a defended pipeline and checks its leg
	// statistics against the wire totals.
	run := func(name string, src analysis.Source, wantCtl, wantIdle experiments.Stats) *analysis.Pipeline {
		t.Helper()
		p := analysis.NewPipeline(src)
		p.Defense = eng
		p.Workers = 2
		p.SetObs(obs.NewRegistry())
		p.Run(icfg)
		for _, leg := range []struct {
			name      string
			got, want experiments.Stats
		}{{"controlled", p.Stats, wantCtl}, {"idle", p.IdleStats, wantIdle}} {
			if leg.got.Packets != leg.want.Packets || leg.got.Bytes != leg.want.Bytes {
				t.Errorf("%s %s: stats %d pkts %d bytes, want the defended wire's %d pkts %d bytes",
					name, leg.name, leg.got.Packets, leg.got.Bytes, leg.want.Packets, leg.want.Bytes)
			}
		}
		return p
	}

	wantCtl, wantIdle := wireTotals(newRunner(), eng)
	rawCtl, rawIdle := wireTotals(newRunner(), nil)
	if wantCtl.Bytes <= rawCtl.Bytes || wantIdle.Packets <= rawIdle.Packets {
		t.Fatalf("defense left the wire unchanged (controlled %d → %d bytes, idle %d → %d pkts); test proves nothing",
			rawCtl.Bytes, wantCtl.Bytes, rawIdle.Packets, wantIdle.Packets)
	}
	p := run("runner", newRunner(), wantCtl, wantIdle)

	// Every non-empty experiment of the uncontrolled leg must pass
	// through the engine, which counts the experiments it reshapes.
	var nonEmpty int64
	newRunner().RunUncontrolled(func(res *experiments.UncontrolledResult) {
		if len(res.Experiment.Packets) > 0 {
			nonEmpty++
		}
	})
	if nonEmpty == 0 {
		t.Fatal("uncontrolled leg synthesized no traffic")
	}
	reg := obs.NewRegistry()
	p.SetObs(reg)
	p.RunUncontrolled()
	if got := reg.Counter("reshape_experiments_total").Value(); got != nonEmpty {
		t.Errorf("RunUncontrolled reshaped %d experiments, want all %d with traffic", got, nonEmpty)
	}

	dir := t.TempDir()
	if err := ingest.Export(dir, newRunner()); err != nil {
		t.Fatal(err)
	}
	buffered, err := ingest.Open(dir, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantCtl, wantIdle = wireTotals(buffered, eng)
	streamed, err := ingest.Open(dir, ingest.Options{Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	if !streamed.SingleDecode() {
		t.Fatal("streaming source cannot fold in its decode pass; RunSingleDecode untested")
	}
	run("stream", streamed, wantCtl, wantIdle)
}
