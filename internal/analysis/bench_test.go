package analysis

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/ml"
)

// BenchmarkCollectorStage measures Pipeline.Run — the fold stage's
// degrade + dest + enc + content + identify over every controlled
// experiment, then a light training pass — over a campaign synthesized
// once, on one fold worker and on one per core. Both produce
// byte-identical collector state (TestFoldPipelineMatchesSerial); the
// pair quantifies the speedup.
func BenchmarkCollectorStage(b *testing.B) {
	r, err := experiments.NewRunner(experiments.Config{
		Seed: 1, AutomatedReps: 4, ManualReps: 1, PowerReps: 1, VPN: true,
		Workers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	src := newReplaySource(r)
	// Few trees and repeats keep training a small share of each run.
	icfg := InferConfig{CV: ml.CVConfig{
		TrainFrac: 0.7, Repeats: 2, Seed: 42,
		Forest: ml.ForestConfig{NumTrees: 5},
	}}

	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportMetric(float64(len(src.ctl)+len(src.idle)), "experiments")
			for i := 0; i < b.N; i++ {
				p := NewPipeline(src)
				p.Workers = w
				p.Run(icfg)
			}
		})
	}
}
