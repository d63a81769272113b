package ml

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkTrainForest measures forest training serial vs one worker per
// core. The parallel path pre-draws all bootstrap sets from the seeded
// RNG, so both variants grow byte-identical forests — the benchmark pair
// is the speedup the determinism costs nothing to get.
func BenchmarkTrainForest(b *testing.B) {
	ds := synthMulticlass(400, 12, 6, 7)
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TrainForest(ds, ForestConfig{NumTrees: 40, Seed: 42, Workers: w})
			}
		})
	}
}

// BenchmarkForestPredict exercises the §6 hot loop: one call per traffic
// unit per device model during idle/uncontrolled detection. The vote
// buffer is a stack array, so steady-state predictions must not allocate.
func BenchmarkForestPredict(b *testing.B) {
	ds := synthMulticlass(400, 12, 6, 7)
	f := TrainForest(ds, ForestConfig{NumTrees: 40, Seed: 42})
	x := ds.Features[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictTop(x)
	}
}
