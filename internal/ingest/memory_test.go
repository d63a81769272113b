package ingest_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	intliot "github.com/neu-sns/intl-iot-go"
	"github.com/neu-sns/intl-iot-go/internal/analysis"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/ingest"
	"github.com/neu-sns/intl-iot-go/internal/ml"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// TestStreamingMemoryHighWater guards the point of streaming mode: the
// peak heap while the real analysis collectors fold a tiny-scale
// exported campaign must stay at a fraction of buffered mode's, which
// holds the whole decoded campaign at its first delivery. A fold unit
// that keeps its experiments' packets alive until the merge (through a
// recycled flow table, say) pushes the fold peak past that fraction.
// Both peaks are sampled the same way (forced GC + HeapAlloc at
// delivery points), so the comparison is apples to apples even though
// the absolute numbers move with the runtime.
func TestStreamingMemoryHighWater(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign round trip")
	}
	cfg := intliot.Config{
		Seed:          1,
		AutomatedReps: 1,
		ManualReps:    1,
		PowerReps:     1,
		IdleHours:     map[string]float64{"US": 1, "GB": 1, "US->GB": 1, "GB->US": 1},
		VPN:           true,
	}
	direct, err := intliot.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ingest.Export(dir, direct.Pipeline().Runner()); err != nil {
		t.Fatal(err)
	}

	// Buffered: sample the first delivery (the whole campaign is
	// resident) plus every 16th.
	peakBuffered := func() uint64 {
		src, err := ingest.Open(dir, ingest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var h heapSampler
		visit := func(*testbed.Experiment) { h.tick() }
		src.RunControlled(visit)
		src.RunIdle(visit)
		if h.ticks.Load() == 0 {
			t.Fatal("no experiments replayed")
		}
		return h.max.Load()
	}

	// Fold: a Study over the real pipeline, its fold units wrapped so
	// the heap is sampled inside Fold (where in-flight decode memory is
	// at its fullest) and at the first merge (where every unit's
	// residue is live at once).
	peakFold := func() uint64 {
		src, err := ingest.Open(dir, ingest.Options{Stream: true})
		if err != nil {
			t.Fatal(err)
		}
		ss := &samplingSource{Source: src}
		s := intliot.NewStudyFromSource(ss)
		s.SetInferenceConfig(analysis.InferConfig{CV: ml.CVConfig{
			TrainFrac: 0.7, Repeats: 2, Seed: 42,
			Forest: ml.ForestConfig{NumTrees: 5},
		}})
		s.Run()
		if ss.heap.ticks.Load() == 0 {
			t.Fatal("no experiments folded")
		}
		return ss.heap.max.Load()
	}

	buffered := peakBuffered()
	folded := peakFold()
	ratio := float64(folded) / float64(buffered)
	t.Logf("peak heap: buffered=%d single-decode=%d (%.2f)", buffered, folded, ratio)
	if ratio > 0.25 {
		t.Errorf("single-decode peak heap %d B is %.2f of buffered %d B, want <= 0.25", folded, ratio, buffered)
	}
}

// heapSampler records the peak HeapAlloc after a forced GC on the first
// tick and every 16th; GC on every tick would drown the test in
// collections. Fields are atomics because fold units run on concurrent
// decode workers.
type heapSampler struct {
	ticks atomic.Uint64
	max   atomic.Uint64
}

func (h *heapSampler) tick() {
	if n := h.ticks.Add(1); n == 1 || n%16 == 0 {
		h.sample()
	}
}

func (h *heapSampler) sample() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		cur := h.max.Load()
		if ms.HeapAlloc <= cur || h.max.CompareAndSwap(cur, ms.HeapAlloc) {
			return
		}
	}
}

// samplingSource is an ingest.Source whose fold pass hands the
// pipeline's sink to a heap-sampling sink that delegates to it.
type samplingSource struct {
	*ingest.Source
	heap heapSampler
}

func (s *samplingSource) RunSingleDecode(sink experiments.FoldSink) (ctl, idle experiments.Stats) {
	return s.Source.RunSingleDecode(&samplingFoldSink{inner: sink, heap: &s.heap})
}

type samplingFoldSink struct {
	inner  experiments.FoldSink
	heap   *heapSampler
	merged bool
}

type samplingFoldUnit struct {
	inner experiments.FoldUnit
	heap  *heapSampler
}

func (s *samplingFoldSink) NewFoldUnit(controlled bool) experiments.FoldUnit {
	return &samplingFoldUnit{inner: s.inner.NewFoldUnit(controlled), heap: s.heap}
}

// MergeFoldUnit runs serially, so merged needs no synchronization.
func (s *samplingFoldSink) MergeFoldUnit(controlled bool, u experiments.FoldUnit) {
	if !s.merged {
		s.merged = true
		s.heap.sample()
	}
	s.inner.MergeFoldUnit(controlled, u.(*samplingFoldUnit).inner)
}

func (u *samplingFoldUnit) Fold(exp *testbed.Experiment) {
	u.heap.tick()
	u.inner.Fold(exp)
}
