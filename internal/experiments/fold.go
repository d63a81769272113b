package experiments

import "github.com/neu-sns/intl-iot-go/internal/testbed"

// FoldUnit accumulates one contiguous run of a campaign leg. A fold
// driver — internal/ingest's single-decode pass, or the analysis
// pipeline replaying any other source — asks the sink for a unit per
// run, folds experiments into it concurrently with other units, and
// hands every unit back through FoldSink.MergeFoldUnit in campaign
// order. A unit is only ever touched by one goroutine at a time: the
// worker folding it, then the merging goroutine.
type FoldUnit interface {
	// Fold consumes the next experiment of the unit's run. Experiments
	// arrive in the exact relative order the leg's serial replay would
	// deliver them.
	Fold(*testbed.Experiment)
}

// FoldSink is the analysis side of campaign delivery: a consumer that
// absorbs a campaign as deterministically merged per-run accumulators
// instead of one serial experiment stream.
//
// The contract that keeps every report table byte-identical to serial
// delivery:
//
//   - NewFoldUnit may be called from any goroutine; the returned unit is
//     used by one goroutine at a time.
//   - Each unit receives a contiguous run of one leg (controlled or
//     idle): a span of experiments that are adjacent in the leg's
//     campaign order, delivered to Fold in that order.
//   - MergeFoldUnit is called serially, controlled units first, each
//     leg's units in campaign order, after all folding for that unit has
//     finished.
type FoldSink interface {
	NewFoldUnit(controlled bool) FoldUnit
	MergeFoldUnit(controlled bool, unit FoldUnit)
}
