package analysis

import (
	"sync"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/features"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// Fold delivery: the one way experiments reach the pipeline's collectors.
//
// Every source is folded through the experiments.FoldSink contract. Each
// contiguous run of a leg folds into a fold unit — a private set of empty
// collectors — on one worker goroutine, and the units merge into the
// pipeline's collectors serially, in delivery order, controlled leg
// first. Two drivers produce the units: a singleDecodeSource
// (internal/ingest in streaming mode) folds during its one decode pass,
// and foldReplay folds any other source from its RunControlled/RunIdle
// stream. Every table stays byte-identical to visiting the same stream
// serially through the public Visit methods, because
//
//   - a unit receives a contiguous slice of the delivery order, in
//     order, so device-local order-sensitive state (Welch-test samples,
//     DNS replay within the run) sees exactly the serial order;
//   - units merge in delivery order, so the order-sensitive cross-device
//     structures (PII finding insertion order, identification and
//     activity dataset rows, idle captures) append in the serial order,
//     and everything else is an integer sum, a set union or a memoized
//     pure function;
//   - cross-run DNS label resolution is deferred: a fold unit that
//     cannot resolve an address against its own run's answers parks the
//     flow, and mergeFold resolves it against exactly the answers a
//     serial replay would have seen (dest.go);
//   - idle-leg detection needs models that only exist after the
//     controlled leg trains, so fold units capture each idle
//     experiment's traffic units (segmented and vectorized exactly as
//     Detector.VisitIdle would) and replayIdleDetections classifies them
//     in delivery order once the models exist.
//
// The controlled leg merges completely before training starts.
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

// Collector steps a fold unit times, indexing stepNames: the
// collector_visits.<name> and collector_visit_ns.<name> suffixes. The
// idle leg's detector step is segmentation and vectorization; the
// classification itself runs under the stage:idle span.
const (
	stepDegrade = iota
	stepDest
	stepEnc
	stepContent
	stepIdentify
	stepDetector
	numSteps
)

var stepNames = [numSteps]string{"degrade", "dest", "enc", "content", "identify", "detector"}

// foldSink adapts the pipeline's collectors to the fold contract.
// MergeFoldUnit is called serially (contract), so the idle capture list
// needs no locking.
type foldSink struct {
	p *Pipeline
	// idle accumulates captured idle experiments in delivery order for
	// post-training detection replay.
	idle []idleExp
	// visits and ns are the collector timing counters, resolved once;
	// both are nil without a registry.
	visits, ns [numSteps]*obs.Counter
}

func newFoldSink(p *Pipeline) *foldSink {
	s := &foldSink{p: p}
	if p.metrics != nil {
		for i, name := range stepNames {
			s.visits[i] = p.metrics.Counter("collector_visits." + name)
			s.ns[i] = p.metrics.Counter("collector_visit_ns." + name)
		}
	}
	return s
}

func (s *foldSink) NewFoldUnit(controlled bool) experiments.FoldUnit {
	u := &foldUnit{
		p:          s.p,
		controlled: controlled,
		timed:      s.p.metrics != nil,
		dest:       s.p.Dest.newFoldUnit(),
		enc:        s.p.Enc.newFoldUnit(),
	}
	if controlled {
		u.content = s.p.Content.newFoldUnit()
		u.identify = s.p.Identify.newFoldUnit()
	}
	return u
}

func (s *foldSink) MergeFoldUnit(controlled bool, unit experiments.FoldUnit) {
	u := unit.(*foldUnit)
	p := s.p
	p.Dest.mergeFold(u.dest)
	p.Enc.mergeFold(u.enc)
	if controlled {
		p.Content.mergeFold(u.content)
		p.Identify.mergeFold(u.identify)
	} else {
		s.idle = append(s.idle, u.idle...)
	}
	for i := range stepNames {
		s.visits[i].Add(u.visits[i])
		s.ns[i].Add(u.ns[i])
	}
}

// foldUnit accumulates one contiguous run of a leg. It is goroutine-
// confined by the fold contract; the only state it shares is the
// content collector's scanner cache, which locks itself.
type foldUnit struct {
	p          *Pipeline
	controlled bool
	dest       *DestCollector
	enc        *EncCollector
	content    *ContentCollector
	identify   *IdentifyCollector
	// idle captures idle experiments for post-training replay.
	idle []idleExp
	// visits and ns tally the unit's collector calls per step until the
	// merge flushes them. With timed false (no registry) Fold reads no
	// clock at all.
	timed      bool
	visits, ns [numSteps]int64
}

func (u *foldUnit) Fold(exp *testbed.Experiment) {
	if u.p.canceled() {
		exp.Done()
		return
	}
	var t time.Time
	if u.timed {
		t = time.Now()
	}
	u.p.degradeExp(exp)
	t = u.lap(stepDegrade, t)
	u.dest.Visit(exp)
	t = u.lap(stepDest, t)
	u.enc.Visit(exp)
	t = u.lap(stepEnc, t)
	if u.controlled {
		u.content.Visit(exp)
		t = u.lap(stepContent, t)
		u.identify.Visit(exp)
		u.lap(stepIdentify, t)
	} else {
		// The gap and feature set are the ones NewDetector configures.
		// Every unit is vectorized, even ones the MinUnitPackets filter
		// will drop: the packets are gone after this fold.
		u.idle = append(u.idle, segmentIdle(exp, features.DefaultUnitGap, u.p.Content.FeatureSet, 0))
		u.lap(stepDetector, t)
	}
	// The flow scratches would pin this experiment's packets until merge.
	u.dest.scratch, u.enc.scratch = netx.FlowScratch{}, netx.FlowScratch{}
	exp.Done()
}

// lap attributes the time since t0 to step and returns the next lap's
// start. Untimed units return t0 unread.
func (u *foldUnit) lap(step int, t0 time.Time) time.Time {
	if !u.timed {
		return t0
	}
	now := time.Now()
	u.ns[step] += int64(now.Sub(t0))
	u.visits[step]++
	return now
}

// foldQueueDepth bounds the experiments queued ahead of a run's worker,
// so memory stays proportional to workers when delivery outruns analysis.
const foldQueueDepth = 64

// foldRun is one contiguous run of a delivered leg on its way through a
// worker to the merge.
type foldRun struct {
	controlled bool
	unit       experiments.FoldUnit
	exps       chan *testbed.Experiment
	done       chan struct{}
}

// foldReplay folds a plain source through sink: RunControlled, then
// RunIdle unless the pipeline was cancelled meanwhile. A new run starts
// whenever the delivered experiment's device instance or VPN flag
// changes — the run rule of the ingest fold pass — and each run folds on
// one of workers goroutines. A merger goroutine merges finished runs in
// delivery order, controlled leg first, while later runs still fold; at
// most 2×workers+1 runs are pending, so memory does not grow with the
// campaign. The returned statistics are exactly the source's.
func (p *Pipeline) foldReplay(sink experiments.FoldSink, workers int) (ctl, idle experiments.Stats) {
	work := make(chan *foldRun)
	order := make(chan *foldRun, 2*workers)
	var folding sync.WaitGroup
	folding.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer folding.Done()
			for r := range work {
				for exp := range r.exps {
					r.unit.Fold(exp)
				}
				close(r.done)
			}
		}()
	}
	merged := make(chan struct{})
	go func() {
		defer close(merged)
		for r := range order {
			<-r.done
			sink.MergeFoldUnit(r.controlled, r.unit)
		}
	}()

	leg := func(controlled bool, run func(experiments.Visitor) experiments.Stats) experiments.Stats {
		var (
			cur *foldRun
			dev string
			vpn bool
		)
		stats := run(func(exp *testbed.Experiment) {
			if p.canceled() {
				exp.Done()
				return
			}
			if id := exp.Device.ID(); cur == nil || id != dev || exp.VPN != vpn {
				if cur != nil {
					close(cur.exps)
				}
				cur = &foldRun{
					controlled: controlled,
					unit:       sink.NewFoldUnit(controlled),
					exps:       make(chan *testbed.Experiment, foldQueueDepth),
					done:       make(chan struct{}),
				}
				dev, vpn = id, exp.VPN
				order <- cur
				work <- cur
			}
			cur.exps <- exp
		})
		if cur != nil {
			close(cur.exps)
		}
		return stats
	}
	ctl = leg(true, p.Source.RunControlled)
	if !p.canceled() {
		idle = leg(false, p.Source.RunIdle)
	}
	close(work)
	close(order)
	folding.Wait()
	<-merged
	return ctl, idle
}

// replayIdleDetections classifies the captured idle experiments in
// delivery order, the order a serial VisitIdle loop would see.
func (p *Pipeline) replayIdleDetections(idle []idleExp) {
	for i := range idle {
		if p.canceled() {
			return
		}
		p.Detector.classifyIdle(&idle[i], p.IdleHits)
	}
}
