package ingest

// Single-decode streaming: fold the campaign into the consumer during
// the one and only decode pass.
//
// Buffered mode holds the whole decoded campaign before the first
// experiment is delivered. The fold pass never does, for consumers
// that implement experiments.FoldSink (the analysis pipeline): each
// decode worker memory-maps a file, decodes it once, sorts its
// experiments into campaign order, folds each contiguous same-(vpn,
// leg) run into a fresh sink unit, and unmaps. When every file has
// decoded, the accumulated units merge serially in campaign order —
// controlled runs first, then idle runs. A unit must copy out what it
// keeps: packet payloads alias the file's mapping, which is released as
// soon as the file's runs have folded.
//
// Correctness rests on decodeCapture's determinism plus one contiguity
// fact: for a fixed file, leg and VPN flag, the file's entries are
// contiguous in the leg's campaign order, because any entry sorting
// between two of them shares their whole (lab, vpn, slot, dir, file)
// prefix and therefore belongs to the same group. Each unit therefore
// receives exactly the slice of the serial delivery order it claims, in
// order, and the merge step re-creates the serial order across units.

import (
	"sort"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// SingleDecode reports whether the source can still run a fold pass:
// streaming mode, and no ingestion pass started yet (Report or a Run*
// leg runs the buffered load through the same sync.Once).
func (s *Source) SingleDecode() bool {
	return s.opts.Stream && !s.started.Load()
}

// RunSingleDecode decodes every capture file exactly once, folding
// experiments into sink units as they decode and merging the units in
// campaign order. It consumes the source (like the Run* legs, the tape
// plays once); Report is valid afterwards. If another ingestion pass
// already ran, it returns empty stats — callers gate on SingleDecode.
func (s *Source) RunSingleDecode(sink experiments.FoldSink) (ctl, idle experiments.Stats) {
	s.once.Do(func() {
		s.started.Store(true)
		ctl, idle = s.foldPass(sink)
	})
	return ctl, idle
}

// foldedRun is one contiguous same-(vpn, leg) slice of a file's
// experiments, folded into a sink unit; key is its first entry's
// campaign key, which positions the whole run in the merge order.
type foldedRun struct {
	key        sortKey
	controlled bool
	unit       experiments.FoldUnit
}

func (s *Source) foldPass(sink experiments.FoldSink) (ctl, idle experiments.Stats) {
	decodeH := s.metrics.Histogram("ingest_file_decode_seconds", obs.DurationBuckets)
	expTotal := s.metrics.Counter("experiments_total")

	type fileOut struct {
		runs      []foldedRun
		report    Report
		ctl, idle experiments.Stats
	}
	foldFile := func(rel string) fileOut {
		t0 := time.Now()
		res, release := s.parseFileMapped(rel)
		decodeH.ObserveDuration(time.Since(t0))
		out := fileOut{report: res.report}
		// A file's entries fold in campaign order; within one file the
		// key reduces to (vpn, window).
		sort.Slice(res.entries, func(i, j int) bool {
			return res.entries[i].key.less(res.entries[j].key)
		})
		var cur *foldedRun
		for _, e := range res.entries {
			controlled := e.exp.Kind != testbed.KindIdle
			if controlled {
				account(&out.ctl, e.exp)
			} else {
				account(&out.idle, e.exp)
			}
			expTotal.Inc()
			if cur == nil || cur.controlled != controlled || cur.key.vpn != e.key.vpn {
				out.runs = append(out.runs, foldedRun{
					key:        e.key,
					controlled: controlled,
					unit:       sink.NewFoldUnit(controlled),
				})
				cur = &out.runs[len(out.runs)-1]
			}
			cur.unit.Fold(e.exp)
		}
		// Everything the fold keeps is copied out of the packet buffers,
		// so the mapping can go before the merge.
		if release != nil {
			release()
		}
		return out
	}

	var runs []foldedRun
	for _, out := range decodePass(s, foldFile) {
		addReport(&s.report, out.report)
		addStats(&ctl, out.ctl)
		addStats(&idle, out.idle)
		runs = append(runs, out.runs...)
	}
	s.publishReport()

	// Merge in campaign order: the controlled leg completely, then the
	// idle leg, exactly the order the serial Run* pair delivers.
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].controlled != runs[j].controlled {
			return runs[i].controlled
		}
		return runs[i].key.less(runs[j].key)
	})
	for _, r := range runs {
		sink.MergeFoldUnit(r.controlled, r.unit)
	}
	return ctl, idle
}

// addStats folds one file's leg statistics into a running total; every
// field is an integer sum, so accumulation order cannot matter.
func addStats(dst *experiments.Stats, src experiments.Stats) {
	dst.Experiments += src.Experiments
	dst.Automated += src.Automated
	dst.Manual += src.Manual
	dst.Power += src.Power
	dst.Packets += src.Packets
	dst.Bytes += src.Bytes
}
