package analysis

import (
	"context"
	"runtime"

	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/geo"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/reshape"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// Pipeline bundles every collector and runs the full §4–§7 analysis over
// a campaign. It is the one-call entry point cmd/moniotr and the
// benchmarks use. Experiments come from a Source — either the in-process
// synthesis runner or a capture-directory ingester.
type Pipeline struct {
	Source   Source
	Dest     *DestCollector
	Enc      *EncCollector
	Content  *ContentCollector
	Identify *IdentifyCollector

	// Workers bounds the analysis-side parallelism: the goroutines that
	// fold runs of experiments into fold units (fold.go) and model
	// training/evaluation. 0 means GOMAXPROCS; 1 folds on one worker and
	// trains serially. Every table, model and detection is byte-identical
	// for any value.
	Workers int

	// Filled by Run:
	Stats     experiments.Stats
	IdleStats experiments.Stats
	Inference []InferenceResult
	Detector  *Detector
	IdleHits  *DetectResult
	// UncontrolledHits and Unexpected are filled by RunUncontrolled.
	UncontrolledHits *DetectResult
	Unexpected       map[string]int

	// metrics is nil unless SetObs attached a registry.
	metrics *obs.Registry

	// ctx is nil unless SetContext attached a cancellation context;
	// aborted records that Run (or RunUncontrolled) observed it.
	ctx     context.Context
	aborted bool
}

// SetContext attaches a cancellation context, for services that must
// stop a campaign mid-flight (moniotrd's graceful shutdown). Once ctx
// is cancelled the pipeline stops visiting experiments — sources keep
// delivering, but every visit returns immediately — and no further
// stage starts, so Run returns as soon as the current source leg
// drains. Results are partial after an abort; check Aborted before
// using them. Call before Run; a nil context (the default) disables
// cancellation entirely.
func (p *Pipeline) SetContext(ctx context.Context) { p.ctx = ctx }

// Aborted reports whether the last Run or RunUncontrolled observed a
// cancelled context and returned early.
func (p *Pipeline) Aborted() bool { return p.aborted }

// canceled reports whether the attached context has been cancelled. It
// is consulted on every experiment visit, from fold workers too; ctx is
// written once before Run, so the concurrent reads are safe.
func (p *Pipeline) canceled() bool { return p.ctx != nil && p.ctx.Err() != nil }

// abortIfCanceled latches the abort flag between stages.
func (p *Pipeline) abortIfCanceled() bool {
	if p.canceled() {
		p.aborted = true
	}
	return p.aborted
}

// Runner returns the synthesis runner when the pipeline's source is one,
// or nil for capture-replay sources. Defense wrappers (internal/reshape)
// are unwrapped transparently: the §7.3 uncontrolled analysis and the
// capture exporter need the runner itself; everything else should go
// through Source.
func (p *Pipeline) Runner() *experiments.Runner {
	src := any(p.Source)
	for src != nil {
		if r, ok := src.(*experiments.Runner); ok {
			return r
		}
		u, ok := src.(interface{ Unwrap() reshape.Stream })
		if !ok {
			return nil
		}
		src = u.Unwrap()
	}
	return nil
}

// SetObs attaches a metrics registry to the pipeline and its source. Run
// then records per-stage wall-time spans (stage:fold, stage:train,
// stage:idle, and stage:uncontrolled from RunUncontrolled) and
// per-collector visit counts and cumulative visit time. Call before
// Run; instrumentation is nil-safe and changes no analysis output.
func (p *Pipeline) SetObs(reg *obs.Registry) {
	p.metrics = reg
	p.Source.SetObs(reg)
}

// NewPipeline wires collectors to an experiment source's Internet model.
func NewPipeline(src Source) *Pipeline {
	internet := src.Internet()
	locators := map[string]*geo.Locator{
		"US": internet.Locator("US"),
		"GB": internet.Locator("GB"),
	}
	return &Pipeline{
		Source:   src,
		Dest:     NewDestCollector(internet.Registry, locators),
		Enc:      NewEncCollector(),
		Content:  NewContentCollector(),
		Identify: NewIdentifyCollector(),
	}
}

// workerCount resolves a Workers knob: n > 0 is taken literally,
// anything else means one worker per core.
func workerCount(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Run folds the controlled and idle experiments into the collectors
// (fold.go), trains the inference models on the controlled data, and
// applies them to the idle captures, in three stages: stage:fold,
// stage:train and stage:idle. A source that can fold the campaign during
// its own decode pass does so; any other source is replayed through
// fold units. Output is byte-identical for any worker count.
func (p *Pipeline) Run(cfg InferConfig) {
	p.aborted = false
	if p.abortIfCanceled() {
		return
	}
	workers := workerCount(p.Workers)
	if cfg.Workers == 0 {
		// A pipeline forced to one worker evaluates models serially too,
		// so -analysis-workers=1 reproduces the single-threaded training
		// end to end.
		cfg.Workers = workers
	}
	p.metrics.Gauge("analysis_workers").Set(float64(workers))

	sink := newFoldSink(p)
	span := p.metrics.StartSpan("stage:fold")
	if sd, ok := p.Source.(singleDecodeSource); ok && sd.SingleDecode() {
		p.Stats, p.IdleStats = sd.RunSingleDecode(sink)
	} else {
		p.Stats, p.IdleStats = p.foldReplay(sink, workers)
	}
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

// RunUncontrolled executes the §7.3 user-study analysis; Run must have
// been called first (it trains the models). It requires a synthesis
// runner source — a capture directory carries no uncontrolled campaign —
// and is a no-op otherwise (callers can check Runner() == nil).
func (p *Pipeline) RunUncontrolled() {
	r := p.Runner()
	if r == nil {
		return
	}
	if p.abortIfCanceled() {
		return
	}
	p.UncontrolledHits = NewDetectResult()
	p.Unexpected = make(map[string]int)
	// The uncontrolled leg bypasses the source's RunControlled/RunIdle,
	// so a defense wrapper must be applied here explicitly: the detector
	// has to see the same reshaped wire view it trained on.
	transformer, _ := p.Source.(interface{ TransformExperiment(*testbed.Experiment) })
	span := p.metrics.StartSpan("stage:uncontrolled")
	r.RunUncontrolled(func(res *experiments.UncontrolledResult) {
		if p.canceled() {
			return
		}
		if transformer != nil {
			transformer.TransformExperiment(res.Experiment)
		}
		p.degradeExp(res.Experiment)
		p.Detector.VisitUncontrolled(res, p.UncontrolledHits, p.Unexpected)
	})
	span.End()
	p.abortIfCanceled()
}
