package analysis

import (
	"time"

	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/features"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// Single-decode streaming support.
//
// A Source that also implements singleDecodeSource can push the whole
// campaign through the pipeline during its one decode pass instead of
// buffering it for a serial replay. Experiments arrive out of
// campaign order — whichever file a decode worker finishes first — so
// the collectors absorb them through the fold contract
// (internal/experiments.FoldSink): each contiguous run of a leg folds
// into a private accumulator on the worker that decoded it, and the
// accumulators merge serially in campaign order afterwards. Every
// table stays byte-identical to the buffered serial pipeline because
//
//   - device-local, order-sensitive state (DNS replay caches, Welch
//     samples, idle hours) sees the serial order within each run, and
//     runs merge in the serial order;
//   - cross-run DNS label resolution is deferred: a fold unit that
//     cannot resolve an address against its own run's answers parks the
//     flow, and mergeFold resolves it against exactly the answers a
//     serial replay would have seen (dest.go);
//   - sequence-tagged rows (PII findings, identification rows) carry
//     unit-local sequences that MergeFoldUnit rebases onto the global
//     campaign sequence;
//   - idle-leg detection needs models that only exist after the
//     controlled leg trains, so fold units capture each idle
//     experiment's traffic units (segmented and vectorized exactly as
//     Detector.VisitIdle would) and replayIdleDetections re-runs the
//     classification in campaign order once the models exist.
type singleDecodeSource interface {
	Source
	// SingleDecode reports whether the source can still run a fold pass
	// (streaming enabled, no other ingestion pass already run).
	SingleDecode() bool
	// RunSingleDecode decodes every file once, folding experiments into
	// sink units as they decode and merging them in campaign order. It
	// returns the controlled- and idle-leg statistics.
	RunSingleDecode(experiments.FoldSink) (ctl, idle experiments.Stats)
}

// foldSink adapts the pipeline's collectors to the fold contract.
// MergeFoldUnit is called serially (contract), so the running global
// sequence and the idle capture list need no locking.
type foldSink struct {
	p *Pipeline
	// ctlSeq is the global controlled-leg delivery sequence: the number
	// of controlled experiments merged so far. Unit-local row sequences
	// rebase onto it.
	ctlSeq int64
	// idle accumulates captured idle experiments in campaign order for
	// post-training detection replay.
	idle []idleFoldExp
}

func (s *foldSink) NewFoldUnit(controlled bool) experiments.FoldUnit {
	u := &foldUnit{
		p:          s.p,
		controlled: controlled,
		dest:       s.p.Dest.newFoldUnit(),
		enc:        s.p.Enc.newShard(),
	}
	if controlled {
		u.content = s.p.Content.newShard()
		u.identify = s.p.Identify.newShard()
	}
	return u
}

func (s *foldSink) MergeFoldUnit(controlled bool, unit experiments.FoldUnit) {
	u := unit.(*foldUnit)
	p := s.p
	p.Dest.mergeFold(u.dest)
	p.Enc.merge(u.enc)
	if controlled {
		p.Content.mergeFold(u.content, s.ctlSeq, u.count)
		p.Identify.mergeFold(u.identify, s.ctlSeq, u.count)
		s.ctlSeq += u.count
	} else {
		s.idle = append(s.idle, u.idle...)
	}
}

// foldUnit accumulates one contiguous run of a leg. It is goroutine-
// confined by the fold contract, so the collectors inside need no
// synchronization beyond what shard collectors already have.
type foldUnit struct {
	p          *Pipeline
	controlled bool
	// count is the number of experiments folded; doubles as the
	// unit-local delivery sequence for visitAt.
	count    int64
	dest     *DestCollector
	enc      *EncCollector
	content  *ContentCollector
	identify *IdentifyCollector
	// idle captures idle experiments for post-training replay.
	idle []idleFoldExp
}

func (u *foldUnit) Fold(exp *testbed.Experiment) {
	if u.p.canceled() {
		exp.Done()
		return
	}
	u.p.degradeExp(exp)
	u.dest.Visit(exp)
	u.enc.Visit(exp)
	if u.controlled {
		u.content.visitAt(u.count, exp)
		u.identify.visitAt(u.count, exp)
	} else {
		u.captureIdle(exp)
	}
	// The flow scratches would pin this experiment's packets until merge.
	u.dest.scratch, u.enc.scratch = netx.FlowScratch{}, netx.FlowScratch{}
	u.count++
	exp.Done()
}

// idleFoldExp is one idle experiment reduced to what detection replay
// needs: identity, wall-clock extent, and its traffic units already
// segmented and vectorized from the degraded packets.
type idleFoldExp struct {
	devID, devName, column string
	start, end             time.Time
	units                  []idleFoldUnit
}

type idleFoldUnit struct {
	packets    int
	start, end time.Time
	vec        []float64
}

// captureIdle records the experiment for replayIdleDetections. The gap
// and feature set must match what NewDetector will configure —
// features.DefaultUnitGap and the content collector's feature set —
// so the vectors are exactly the ones Detector.VisitIdle would compute.
// Vectors are computed for every unit, even ones the MinUnitPackets
// filter will later drop: the detector's thresholds are unknown until
// training finishes, and the packets are gone after this fold.
func (u *foldUnit) captureIdle(exp *testbed.Experiment) {
	ie := idleFoldExp{
		devID:   exp.Device.ID(),
		devName: exp.Device.Profile.Name,
		column:  exp.Column,
		start:   exp.Start,
		end:     exp.End,
	}
	fs := u.p.Content.FeatureSet
	for _, unit := range features.Segment(exp.Packets, features.DefaultUnitGap) {
		ie.units = append(ie.units, idleFoldUnit{
			packets: len(unit.Packets),
			start:   unit.Start,
			end:     unit.End,
			vec:     features.Vector(unit.Packets, fs),
		})
	}
	u.idle = append(u.idle, ie)
}

// replayIdleDetections re-runs Detector.visitIdleAt's logic over the
// captured idle experiments, in campaign order, mirroring its
// accounting exactly: the model lookup gates all accounting, hours and
// unit totals accrue per experiment, and detections append directly in
// replay order (which is campaign order, the serial order).
func (p *Pipeline) replayIdleDetections(idle []idleFoldExp) {
	d := p.Detector
	res := p.IdleHits
	for i := range idle {
		if p.canceled() {
			return
		}
		ie := &idle[i]
		model, ok := d.models[instColKey{ie.devID, ie.column}]
		if !ok {
			continue
		}
		if res.deviceHours[ie.column] == nil {
			res.deviceHours[ie.column] = map[string]float64{}
		}
		res.deviceHours[ie.column][ie.devID] += ie.end.Sub(ie.start).Hours()
		if h := res.deviceHours[ie.column][ie.devID]; h > res.Hours[ie.column] {
			res.Hours[ie.column] = h
		}
		us := res.Units[ie.column]
		if us == nil {
			us = &unitStats{}
			res.Units[ie.column] = us
		}
		for _, u := range ie.units {
			us.Total++
			if u.packets < d.MinUnitPackets {
				continue
			}
			label, vote := model.forest.PredictTop(u.vec)
			if vote < d.MinVote || !model.withinEnvelope(label, u.vec) {
				continue
			}
			us.Classified++
			res.Detections = append(res.Detections, Detection{
				DeviceID: ie.devID, DeviceName: ie.devName,
				Column: ie.column, Activity: label,
				Start: u.start, End: u.end,
			})
			res.Counts[DetectKey{ie.devName, label, ie.column}]++
		}
	}
}

// runSingleDecode is Run's body when the source folds the campaign in
// its decode pass. Both legs decode in one pass (capture files carry
// controlled and idle windows side by side), so the controlled/idle
// stage split collapses into fold + train + idle-replay.
func (p *Pipeline) runSingleDecode(src singleDecodeSource, cfg InferConfig) {
	sink := &foldSink{p: p}
	span := p.metrics.StartSpan("stage:fold")
	p.Stats, p.IdleStats = src.RunSingleDecode(sink)
	span.End()
	if p.abortIfCanceled() {
		return
	}

	span = p.metrics.StartSpan("stage:train")
	p.metrics.SetLabel("stage", "train")
	p.Inference = p.Content.Infer(cfg)
	p.Detector = NewDetector(p.Content, p.Inference, cfg)
	span.End()
	if p.abortIfCanceled() {
		return
	}

	p.IdleHits = NewDetectResult()
	span = p.metrics.StartSpan("stage:idle")
	p.replayIdleDetections(sink.idle)
	span.End()
	p.abortIfCanceled()
}
