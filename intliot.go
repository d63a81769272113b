// Package intliot is a Go reproduction of "Information Exposure From
// Consumer IoT Devices: A Multidimensional, Network-Informed Measurement
// Approach" (Ren et al., ACM IMC 2019).
//
// The package simulates the paper's full measurement stack — the 81
// consumer IoT devices of Table 1, the US/UK Mon(IoT)r testbeds with NAT,
// per-MAC capture and an inter-lab VPN, and the server-side Internet they
// talk to — then runs the paper's analyses over the captured traffic:
//
//   - destination analysis (§4): party classification and geolocation of
//     every traffic destination (Tables 2–4, Figure 2);
//   - encryption analysis (§5): protocol + entropy classification of
//     every flow (Tables 5–8);
//   - content analysis (§6): plaintext PII detection and random-forest
//     activity inference (Tables 9–10);
//   - unexpected behaviour (§7): traffic-unit segmentation and
//     high-accuracy model replay over idle and user-study captures
//     (Table 11).
//
// Quick start:
//
//	study, err := intliot.NewStudy(intliot.QuickConfig())
//	if err != nil { ... }
//	study.Run()
//	study.Table2().Render(os.Stdout)
package intliot

import (
	"context"
	"fmt"
	"io"

	"github.com/neu-sns/intl-iot-go/internal/analysis"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/report"
	"github.com/neu-sns/intl-iot-go/internal/reshape"
)

// Config sizes a measurement campaign; see PaperConfig and QuickConfig.
type Config = experiments.Config

// PaperConfig reproduces the paper's §3.3 experiment counts: 30 automated
// repetitions, 3 manual, 3 power, the Table 11 idle hours, VPN repetition
// of every controlled experiment, and 180 user-study days.
func PaperConfig() Config { return experiments.PaperConfig() }

// QuickConfig is a scaled-down campaign that preserves every analysis
// shape while running in seconds; examples and tests use it.
func QuickConfig() Config { return experiments.QuickConfig() }

// ScaleConfig maps a named campaign scale to its Config. The names are
// the ones cmd/moniotr and cmd/moniotrd accept: "tiny" (single
// repetitions, one idle hour per leg — the smoke-test scale), "quick"
// (QuickConfig), "bench" (a mid-sized campaign for benchmarking) and
// "paper" (the full §3.3 experiment counts).
func ScaleConfig(scale string) (Config, error) {
	switch scale {
	case "tiny":
		cfg := QuickConfig()
		cfg.AutomatedReps = 1
		cfg.ManualReps = 1
		cfg.PowerReps = 1
		cfg.IdleHours = map[string]float64{"US": 1, "GB": 1, "US->GB": 1, "GB->US": 1}
		cfg.UncontrolledDays = 1
		return cfg, nil
	case "quick":
		return QuickConfig(), nil
	case "bench":
		cfg := QuickConfig()
		cfg.AutomatedReps = 12
		cfg.ManualReps = 3
		cfg.PowerReps = 3
		cfg.IdleHours = map[string]float64{"US": 6, "GB": 6, "US->GB": 4, "GB->US": 4}
		cfg.UncontrolledDays = 4
		return cfg, nil
	case "paper":
		return PaperConfig(), nil
	}
	return Config{}, fmt.Errorf("intliot: unknown scale %q (have tiny, quick, bench, paper)", scale)
}

// Table is a rendered result table; see its Render and RenderCSV methods.
type Table = report.Table

// InferenceResult is the per-device activity-inference outcome (§6.3).
type InferenceResult = analysis.InferenceResult

// PIIFinding is one plaintext PII exposure (§6.2).
type PIIFinding = analysis.PIIFinding

// Study is one full measurement campaign plus its analyses.
type Study struct {
	pipeline *analysis.Pipeline
	inferCfg analysis.InferConfig
	ran      bool
}

// NewStudy builds the two labs over a fresh simulated Internet. When
// cfg names a traffic-reshaping defense stack (Reshape), the synthesis
// runner is wrapped so every analysis measures the defended wire view.
func NewStudy(cfg Config) (*Study, error) {
	r, err := experiments.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := NewReshapeEngine(cfg)
	if err != nil {
		return nil, err
	}
	return NewStudyFromSource(reshape.Wrap(r, eng)), nil
}

// NewReshapeEngine builds the traffic-reshaping defense engine a Config
// describes: cfg.Reshape is parsed as a transform stack, a zero
// ReshapeSeed falls back to the campaign Seed, and an empty stack yields
// a nil (disabled) engine — valid everywhere, reshaping nothing.
// cmd/moniotr uses this to defend ingested capture directories with the
// same configuration grammar as synthesized campaigns.
func NewReshapeEngine(cfg Config) (*reshape.Engine, error) {
	stack, err := reshape.ParseStack(cfg.Reshape)
	if err != nil {
		return nil, err
	}
	seed := cfg.ReshapeSeed
	if seed == 0 {
		seed = cfg.Seed
	}
	return reshape.New(reshape.Config{Stack: stack, Seed: seed, Budget: cfg.ReshapeBudget})
}

// Source yields labelled experiments to the analysis pipeline. The
// synthesis runner is the default implementation; internal/ingest
// provides one that replays on-disk Mon(IoT)r capture directories.
type Source = analysis.Source

// NewStudyFromSource runs the analyses over an arbitrary experiment
// source, such as an ingested capture directory. Studies built this way
// support everything except RunUncontrolled, which needs the in-process
// user-study simulation.
func NewStudyFromSource(src Source) *Study {
	return &Study{
		pipeline: analysis.NewPipeline(src),
		inferCfg: analysis.DefaultInferConfig(),
	}
}

// SetInferenceConfig overrides the §6.3 cross-validation parameters;
// call before Run.
func (s *Study) SetInferenceConfig(cfg analysis.InferConfig) { s.inferCfg = cfg }

// SetAnalysisWorkers bounds the analysis-side parallelism: the
// goroutines that fold experiments into the collectors, and model
// training/evaluation. 0 (the default) means one worker per core; 1
// folds on one worker and trains serially. Every report table and
// detection is byte-identical for any value; call before Run.
func (s *Study) SetAnalysisWorkers(n int) { s.pipeline.Workers = n }

// SetContext attaches a cancellation context to the analysis pipeline.
// Once cancelled, the running campaign stops visiting experiments and
// no further stage starts; Run returns promptly with partial results.
// Check Aborted before using them. Call before Run; moniotrd uses this
// for graceful shutdown.
func (s *Study) SetContext(ctx context.Context) { s.pipeline.SetContext(ctx) }

// Aborted reports whether the last Run observed a cancelled context.
func (s *Study) Aborted() bool { return s.pipeline.Aborted() }

// Metrics is the observability registry; see internal/obs.
type Metrics = obs.Registry

// NewMetrics returns an empty observability registry for SetObs.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// SetObs attaches a metrics registry to the whole stack — pipeline,
// runner, both labs and the simulated Internet. Run then records stage
// wall times, per-collector visit counts and times, synthesis throughput
// and volume. Call before Run; a nil registry (the default) keeps every
// instrumentation site a no-op, and enabling metrics changes no analysis
// output.
func (s *Study) SetObs(reg *Metrics) { s.pipeline.SetObs(reg) }

// Run executes the controlled and idle campaigns and every analysis.
func (s *Study) Run() {
	s.pipeline.Run(s.inferCfg)
	s.ran = true
}

// RunUncontrolled executes the §7.3 user-study analysis; Run must have
// completed first, and the study must be runner-backed (capture-replay
// sources carry no uncontrolled campaign).
func (s *Study) RunUncontrolled() error {
	if !s.ran {
		return fmt.Errorf("intliot: RunUncontrolled requires Run first")
	}
	if s.pipeline.Runner() == nil {
		return fmt.Errorf("intliot: RunUncontrolled requires a synthesis runner source")
	}
	s.pipeline.RunUncontrolled()
	return nil
}

// Summary writes campaign statistics.
func (s *Study) Summary(w io.Writer) {
	fmt.Fprintf(w, "controlled: %s\n", s.pipeline.Stats)
	fmt.Fprintf(w, "idle:       %s\n", s.pipeline.IdleStats)
}

// Pipeline exposes the underlying collectors for advanced use.
func (s *Study) Pipeline() *analysis.Pipeline { return s.pipeline }

// Table1 renders the device inventory.
func (s *Study) Table1() *Table { return report.Table1() }

// Table2 renders non-first parties by experiment type.
func (s *Study) Table2() *Table { return report.Table2(s.pipeline.Dest) }

// Table3 renders non-first parties by device category.
func (s *Study) Table3() *Table { return report.Table3(s.pipeline.Dest) }

// Table4 renders the ten most-contacted organisations.
func (s *Study) Table4() *Table { return report.Table4(s.pipeline.Dest, 10) }

// Figure2 renders the traffic-volume band data behind Figure 2.
func (s *Study) Figure2() *Table { return report.Figure2(s.pipeline.Dest, 7) }

// Table5 renders encryption quartile counts.
func (s *Study) Table5() *Table { return report.Table5(s.pipeline.Enc) }

// Table6 renders encryption class shares by category.
func (s *Study) Table6() *Table { return report.Table6(s.pipeline.Enc) }

// Table7 renders per-device unencrypted percentages; names nil = all.
func (s *Study) Table7(names []string) *Table { return report.Table7(s.pipeline.Enc, names) }

// Table8 renders encryption class shares by experiment type.
func (s *Study) Table8() *Table { return report.Table8(s.pipeline.Enc) }

// EncMetricsReport renders the entropy metric family means (Shannon,
// Rényi α∈{0.5,2}, Tsallis q=2) per encryption class and column.
func (s *Study) EncMetricsReport() *Table { return report.EncMetrics(s.pipeline.Enc) }

// Table9 renders inferrable devices by category.
func (s *Study) Table9() *Table { return report.Table9(s.pipeline.Inference) }

// Table10 renders inferrable activities by group.
func (s *Study) Table10() *Table { return report.Table10(s.pipeline.Inference) }

// Table11 renders idle-detected activity instances (rows with at least
// minInstances detections in some column; the paper uses 3).
func (s *Study) Table11(minInstances int) *Table {
	return report.Table11(s.pipeline.IdleHits, minInstances)
}

// Headline renders the §1/§9 summary statistics next to the paper's.
func (s *Study) Headline() *Table { return report.Headline(s.pipeline.Dest) }

// Document is an ordered, keyed collection of tables; see
// internal/report. Its RenderJSON output is canonical, which is what
// lets the moniotrd API serve reports byte-identical to the CLI's.
type Document = report.Document

// ReportDocument builds the canonical report: every table of the
// evaluation in the CLI's order, keyed by the CLI's table names
// ("headline", "1".."11", "fig2", "enc-metrics", "pii", and — when
// RunUncontrolled has completed — "unexpected"). cmd/moniotr -json and
// the moniotrd report
// API both serve exactly this document, so the two render byte-identical
// JSON for the same campaign.
func (s *Study) ReportDocument() *Document {
	d := &Document{}
	d.Add("headline", s.Headline())
	d.Add("1", s.Table1())
	d.Add("2", s.Table2())
	d.Add("3", s.Table3())
	d.Add("4", s.Table4())
	d.Add("fig2", s.Figure2())
	d.Add("5", s.Table5())
	d.Add("6", s.Table6())
	d.Add("7", s.Table7(nil))
	d.Add("8", s.Table8())
	d.Add("enc-metrics", s.EncMetricsReport())
	d.Add("9", s.Table9())
	d.Add("10", s.Table10())
	d.Add("11", s.Table11(3))
	d.Add("pii", s.PIIReport())
	if s.pipeline.Unexpected != nil {
		d.Add("unexpected", s.UnexpectedReport())
	}
	return d
}

// PIIReport renders the plaintext PII findings.
func (s *Study) PIIReport() *Table { return report.PIIReport(s.pipeline.Content.Findings()) }

// UnexpectedReport renders the §7.3 user-study findings (requires
// RunUncontrolled).
func (s *Study) UnexpectedReport() *Table {
	return report.UnexpectedReport(s.pipeline.Unexpected)
}

// Inference exposes the raw per-device cross-validation results.
func (s *Study) Inference() []InferenceResult { return s.pipeline.Inference }

// Findings exposes the raw PII findings.
func (s *Study) Findings() []PIIFinding { return s.pipeline.Content.Findings() }
