package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	intliot "github.com/neu-sns/intl-iot-go"
	"github.com/neu-sns/intl-iot-go/internal/analysis"
	"github.com/neu-sns/intl-iot-go/internal/dataset"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/fleet"
	"github.com/neu-sns/intl-iot-go/internal/ingest"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/report"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// sizes scales every workload. full is what the benchmark runs; tiny
// keeps the harness self-test fast while exercising the same code.
type sizes struct {
	campaignAutoReps  int
	campaignIdleHours float64
	fixtureIdleHours  float64
	// fleetWork sizes the fleet workload in bytes its homes allocate
	// (see homesForWork), so that every seed gives a fleet with about
	// the same amount of work.
	fleetWork int64
	// traceFleetHomes sizes the side fleet a traced run of a non-fleet
	// workload uses for the fleet and sketch layers.
	traceFleetHomes int
	// minRuns is the fewest timed runs a measurement makes.
	minRuns int
}

var (
	fullSizes = sizes{campaignAutoReps: 2, campaignIdleHours: 1, fixtureIdleHours: 3, fleetWork: 800e6, traceFleetHomes: 8, minRuns: 3}
	tinySizes = sizes{campaignAutoReps: 1, campaignIdleHours: 0.05, fixtureIdleHours: 0.05, fleetWork: 40e6, traceFleetHomes: 2, minRuns: 1}
)

// params are a run's inputs: the workload seed, the worker count every
// layer is given, a scratch directory inside the checkout, and sizes.
type params struct {
	seed    int64
	workers int
	dir     string
	size    sizes
}

// outcome is one timed run's result.
type outcome struct {
	report    []byte
	bytes     int64 // capture (ingest), synthesized (campaign) or wire (fleet) bytes
	homes     int
	attempted int
	failed    int
}

// program is the state setup built; run takes it to the rendered
// report. A registry, when non-nil, is attached through the program's
// own SetObs/reg parameter (the traced run reads it afterwards).
type program interface {
	run(reg *obs.Registry) (outcome, error)
	// render renders the finished run's report again.
	render() ([]byte, error)
}

// workload is one benchmark input shape.
type workload interface {
	// prepare makes the seeded inputs and the self-generated reference
	// report. None of it is timed.
	prepare(p params) error
	// setup builds the program state for one run; it is timed as setup_s.
	setup() (program, error)
	// reference is the report every run must reproduce byte for byte.
	reference() []byte
	// describe lists the run context: worker counts and input size. It
	// is called after the timed runs.
	describe() [][2]string
}

var workloads = map[string]func() workload{
	"campaign":      func() workload { return &campaign{} },
	"ingest-fold":   func() workload { return &ingestWL{stream: true} },
	"ingest-pcapng": func() workload { return &ingestWL{adapter: "pcapng"} },
	"fleet":         func() workload { return &fleetWL{} },
}

var workloadOrder = []string{"campaign", "ingest-fold", "ingest-pcapng", "fleet"}

func inferConfig(workers int) analysis.InferConfig {
	c := analysis.DefaultInferConfig()
	c.Workers = workers
	return c
}

// renderStudy renders a finished study's canonical JSON report.
func renderStudy(s *intliot.Study) ([]byte, error) {
	var buf bytes.Buffer
	if err := s.ReportDocument().RenderJSON(&buf); err != nil {
		return nil, fmt.Errorf("render report: %w", err)
	}
	return buf.Bytes(), nil
}

// campaignConfig is the synthesize→tables campaign: two automated
// repetitions so the §6.3 forest trains, one manual and one power
// repetition, short idle legs, and no VPN repetition, which would
// double the run.
func campaignConfig(p params) intliot.Config {
	cfg := intliot.QuickConfig()
	cfg.Seed = p.seed
	cfg.AutomatedReps = p.size.campaignAutoReps
	cfg.ManualReps = 1
	cfg.PowerReps = 1
	h := p.size.campaignIdleHours
	cfg.IdleHours = map[string]float64{"US": h, "GB": h, "US->GB": h, "GB->US": h}
	cfg.Workers = p.workers
	cfg.VPN = false
	return cfg
}

// fixtureConfig is the campaign the ingest fixtures are exported from:
// one repetition of everything and long idle legs, so decode and
// delivery dominate and training is negligible.
func fixtureConfig(p params) intliot.Config {
	cfg, _ := intliot.ScaleConfig("tiny")
	cfg.Seed = p.seed
	h := p.size.fixtureIdleHours
	cfg.IdleHours = map[string]float64{"US": h, "GB": h, "US->GB": h, "GB->US": h}
	cfg.Workers = p.workers
	return cfg
}

// studyRun runs a synthesis study to its report with the given worker
// count for synthesis, analysis and training.
func studyRun(cfg intliot.Config, workers int) (*intliot.Study, []byte, error) {
	cfg.Workers = workers
	s, err := intliot.NewStudy(cfg)
	if err != nil {
		return nil, nil, err
	}
	return runStudy(s, workers)
}

// runStudy runs a built study to its report with the given analysis and
// training worker count.
func runStudy(s *intliot.Study, workers int) (*intliot.Study, []byte, error) {
	s.SetAnalysisWorkers(workers)
	s.SetInferenceConfig(inferConfig(workers))
	s.Run()
	if s.Aborted() {
		return nil, nil, fmt.Errorf("study aborted")
	}
	rep, err := renderStudy(s)
	return s, rep, err
}

// ---- campaign --------------------------------------------------------

type campaign struct {
	p   params
	cfg intliot.Config
	ref []byte
	// want is the experiment count of the reference run; a timed run
	// delivering fewer counts the shortfall as failed.
	want           int
	packets, bytes int64
}

func (c *campaign) prepare(p params) error {
	c.p, c.cfg = p, campaignConfig(p)
	s, ref, err := studyRun(c.cfg, 1)
	if err != nil {
		return fmt.Errorf("campaign reference: %w", err)
	}
	c.ref = ref
	pl := s.Pipeline()
	c.want = pl.Stats.Experiments + pl.IdleStats.Experiments
	c.packets = pl.Stats.Packets + pl.IdleStats.Packets
	c.bytes = pl.Stats.Bytes + pl.IdleStats.Bytes
	return nil
}

func (c *campaign) setup() (program, error) {
	s, err := intliot.NewStudy(c.cfg)
	if err != nil {
		return nil, err
	}
	s.SetAnalysisWorkers(c.p.workers)
	s.SetInferenceConfig(inferConfig(c.p.workers))
	return &campaignProg{s: s, want: c.want}, nil
}

func (c *campaign) reference() []byte { return c.ref }

func (c *campaign) describe() [][2]string {
	return [][2]string{
		{"workers.synthesis", fmt.Sprint(c.cfg.Workers)},
		{"workers.analysis", fmt.Sprint(c.p.workers)},
		{"workers.inference", fmt.Sprint(c.p.workers)},
		{"workers.reference", "1"},
		{"campaign.automated_reps", fmt.Sprint(c.cfg.AutomatedReps)},
		{"campaign.experiments", fmt.Sprint(c.want)},
		{"campaign.packets", fmt.Sprint(c.packets)},
		{"campaign.bytes", fmt.Sprint(c.bytes)},
	}
}

type campaignProg struct {
	s    *intliot.Study
	want int
}

func (c *campaignProg) render() ([]byte, error) { return renderStudy(c.s) }

func (c *campaignProg) run(reg *obs.Registry) (outcome, error) {
	if reg != nil {
		c.s.SetObs(reg)
	}
	c.s.Run()
	rep, err := renderStudy(c.s)
	if err != nil {
		return outcome{}, err
	}
	pl := c.s.Pipeline()
	got := pl.Stats.Experiments + pl.IdleStats.Experiments
	failed := c.want - got
	if failed < 0 || c.s.Aborted() {
		failed = c.want
	}
	return outcome{
		report:    rep,
		bytes:     pl.Stats.Bytes + pl.IdleStats.Bytes,
		attempted: c.want,
		failed:    failed,
	}, nil
}

// ---- ingest ----------------------------------------------------------

// ingestWL ingests a capture tree exported in set-up: the native
// classic-pcap tree through the single-decode fold pass (stream), or a
// foreign dataset tree buffered through the adapter's Layout.
type ingestWL struct {
	stream  bool
	adapter string // dataset adapter name; "" is the native layout

	p    params
	tree string
	ref  []byte
	fx   fixtureSize
	// cut counts synthesized packets outside their capture window.
	cut int
	// last is the ingest report of the latest run.
	last ingest.Report
}

// fixtureSize is what an exported capture tree holds on disk.
type fixtureSize struct {
	files int   // capture files
	bytes int64 // bytes of every file in the tree, sidecars included
}

func treeSize(root string) (fixtureSize, error) {
	var fx fixtureSize
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		fx.files++
		fx.bytes += info.Size()
		return nil
	})
	return fx, err
}

// exportFixture synthesizes the fixture campaign directly — its report
// is the ingest reference, as in make smoke — and exports it under
// root in the layout ("native" or a dataset adapter name). It also
// returns how many synthesized packets fall outside their experiment's
// capture window (see windowed).
func exportFixture(p params, layout, root string) ([]byte, int, error) {
	cfg := fixtureConfig(p)
	cfg.Workers = 1
	runner, err := experiments.NewRunner(cfg)
	if err != nil {
		return nil, 0, err
	}
	src := &windowed{Runner: runner}
	_, ref, err := runStudy(intliot.NewStudyFromSource(src), 1)
	if err != nil {
		return nil, 0, fmt.Errorf("fixture reference: %w", err)
	}
	if err := os.RemoveAll(root); err != nil {
		return nil, 0, err
	}
	if err := exportTree(root, layout, runner); err != nil {
		return nil, 0, fmt.Errorf("fixture export: %w", err)
	}
	if err := syncTree(root); err != nil {
		return nil, 0, fmt.Errorf("fixture sync: %w", err)
	}
	return ref, src.cut, nil
}

// syncTree flushes every file under root to disk, so that writing back
// the exported tree does not compete with the timed runs that read it.
func syncTree(root string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
}

// windowed delivers a synthesis runner's experiments with each one's
// packets limited to its half-open capture window [Start, End), which
// is all an exported capture's label sidecar lets ingest attribute.
//
// For some seeds the synthesizer emits packets past an experiment's End
// (seed 15 of the fixture campaign: 62 packets of us/zmodo-doorbell's
// idle window, from a flow still running when the window closes).
// Export writes them and ingest drops them as unlabeled, so the direct
// report and the ingested report differ. The reference is therefore the
// direct synthesis of what the tree can carry; the dropped packets stay
// visible as the ingest run's UnlabeledPackets skips, which count as
// failed operations.
type windowed struct {
	*experiments.Runner
	cut int
}

func (w *windowed) RunControlled(visit experiments.Visitor) experiments.Stats {
	return w.Runner.RunControlled(w.trim(visit))
}

func (w *windowed) RunIdle(visit experiments.Visitor) experiments.Stats {
	return w.Runner.RunIdle(w.trim(visit))
}

func (w *windowed) trim(visit experiments.Visitor) experiments.Visitor {
	return func(exp *testbed.Experiment) {
		kept := exp.Packets[:0]
		for _, p := range exp.Packets {
			if ts := p.Meta.Timestamp; !ts.Before(exp.Start) && ts.Before(exp.End) {
				kept = append(kept, p)
			}
		}
		w.cut += len(exp.Packets) - len(kept)
		exp.Packets = kept
		visit(exp)
	}
}

func (w *ingestWL) name() string {
	if w.adapter != "" {
		return w.adapter
	}
	return "native"
}

func (w *ingestWL) prepare(p params) error {
	w.p = p
	w.tree = filepath.Join(p.dir, "tree-"+w.name())
	ref, cut, err := exportFixture(p, w.name(), w.tree)
	if err != nil {
		return err
	}
	w.ref, w.cut = ref, cut
	w.fx, err = treeSize(w.tree)
	return err
}

// options are the ingest options of every timed run. Neither shape uses
// TwoPass: the fold pass is the streaming default, and the pcapng tree
// is buffered.
func (w *ingestWL) options() (ingest.Options, error) {
	opts, err := layoutOpts(w.name())
	opts.Stream, opts.Workers = w.stream, w.p.workers
	return opts, err
}

// layoutOpts are the ingest options that read a tree in the layout:
// "native" or a dataset adapter name.
func layoutOpts(layout string) (ingest.Options, error) {
	if layout == "native" {
		return ingest.Options{}, nil
	}
	a, err := dataset.ByName(layout)
	if err != nil {
		return ingest.Options{}, err
	}
	return ingest.Options{Layout: a.Layout()}, nil
}

// exportTree writes the runner's campaign under root in the layout:
// "native" or a dataset adapter name.
func exportTree(root, layout string, r *experiments.Runner) error {
	if layout == "native" {
		return ingest.Export(root, r)
	}
	a, err := dataset.ByName(layout)
	if err != nil {
		return err
	}
	return a.Export(root, r)
}

func (w *ingestWL) setup() (program, error) {
	opts, err := w.options()
	if err != nil {
		return nil, err
	}
	src, err := ingest.Open(w.tree, opts)
	if err != nil {
		return nil, err
	}
	s := intliot.NewStudyFromSource(src)
	s.SetAnalysisWorkers(w.p.workers)
	s.SetInferenceConfig(inferConfig(w.p.workers))
	return &ingestProg{s: s, src: src, last: &w.last}, nil
}

func (w *ingestWL) reference() []byte { return w.ref }

func (w *ingestWL) describe() [][2]string {
	shape := "buffered"
	if w.stream {
		shape = "fold"
	}
	return [][2]string{
		{"workers.ingest", fmt.Sprint(w.p.workers)},
		{"workers.analysis", fmt.Sprint(w.p.workers)},
		{"workers.inference", fmt.Sprint(w.p.workers)},
		{"workers.reference", "1"},
		{"ingest.shape", shape},
		{"ingest.layout", w.name()},
		{"fixture.tree_files", fmt.Sprint(w.fx.files)},
		{"fixture.tree_bytes", fmt.Sprint(w.fx.bytes)},
		{"fixture.files", fmt.Sprint(w.last.Files)},
		{"fixture.records", fmt.Sprint(w.last.Records)},
		{"fixture.bytes", fmt.Sprint(w.last.Bytes)},
		{"fixture.sll_records", fmt.Sprint(w.last.SLLRecords)},
		{"fixture.packets_outside_window", fmt.Sprint(w.cut)},
	}
}

type ingestProg struct {
	s    *intliot.Study
	src  *ingest.Source
	last *ingest.Report
}

// skipped counts every SkipReport reason: file-level reasons against
// files, record-level reasons against records.
func skipped(r ingest.Report) (files, records int) {
	k := r.Skips
	return k.TruncatedFiles + k.UnknownDevice + k.BadFiles, k.UnlabeledPackets + k.DecodeErrors
}

func (g *ingestProg) render() ([]byte, error) { return renderStudy(g.s) }

func (g *ingestProg) run(reg *obs.Registry) (outcome, error) {
	if reg != nil {
		g.s.SetObs(reg)
	}
	g.s.Run()
	rep, err := renderStudy(g.s)
	if err != nil {
		return outcome{}, err
	}
	r := g.src.Report()
	*g.last = r
	f, rec := skipped(r)
	out := outcome{
		report:    rep,
		bytes:     r.Bytes,
		attempted: r.Files + r.Records,
		failed:    f + rec,
	}
	if g.s.Aborted() {
		out.failed = out.attempted
	}
	return out, nil
}

// ---- fleet -----------------------------------------------------------

type fleetWL struct {
	p   params
	cfg fleet.Config
	ref []byte
	// Totals of the reference run.
	homes, experiments int
	wire               int64
}

func fleetConfig(homes int, p params) fleet.Config {
	return fleet.Config{Homes: homes, Seed: p.seed, Workers: p.workers}
}

// runFleet runs a fleet to its rendered report document.
func runFleet(cfg fleet.Config, reg *obs.Registry) (*fleet.Aggregate, []byte, error) {
	agg, err := fleet.Run(context.Background(), cfg, reg)
	if err != nil {
		return agg, nil, fmt.Errorf("fleet: %w", err)
	}
	rep, err := renderFleet(agg)
	return agg, rep, err
}

func (f *fleetWL) prepare(p params) error {
	f.p = p
	// Plan is a pure function of (seed, home index), so a shorter fleet
	// is a prefix of a longer one; homes allocate well over 4 MB each.
	specs, err := fleet.Plan(fleetConfig(int(p.size.fleetWork/4e6)+1, p))
	if err != nil {
		return err
	}
	homes, err := homesForWork(specs, p.seed, p.size.fleetWork)
	if err != nil {
		return err
	}
	f.cfg = fleetConfig(homes, p)
	ref := f.cfg
	ref.Workers = 1
	agg, rep, err := runFleet(ref, nil)
	if err != nil {
		return fmt.Errorf("fleet reference: %w", err)
	}
	f.ref = rep
	f.homes, f.experiments, f.wire = agg.Homes, agg.Experiments, agg.WireBytes
	return nil
}

func (f *fleetWL) setup() (program, error) {
	specs, err := fleet.Plan(f.cfg)
	if err != nil {
		return nil, err
	}
	return &fleetProg{cfg: f.cfg, homes: len(specs)}, nil
}

func (f *fleetWL) reference() []byte { return f.ref }

func (f *fleetWL) describe() [][2]string {
	return [][2]string{
		{"workers.fleet", fmt.Sprint(f.cfg.Workers)},
		{"workers.reference", "1"},
		{"fleet.homes", fmt.Sprint(f.homes)},
		{"fleet.experiments", fmt.Sprint(f.experiments)},
		{"fleet.wire_bytes", fmt.Sprint(f.wire)},
	}
}

type fleetProg struct {
	cfg   fleet.Config
	homes int
	// progress, when set, observes Config.Progress callbacks.
	progress func(done, total int)
	agg      *fleet.Aggregate
}

func renderFleet(agg *fleet.Aggregate) ([]byte, error) {
	var buf bytes.Buffer
	if err := report.FleetDocument(agg).RenderJSON(&buf); err != nil {
		return nil, fmt.Errorf("render fleet report: %w", err)
	}
	return buf.Bytes(), nil
}

func (g *fleetProg) render() ([]byte, error) { return renderFleet(g.agg) }

func (g *fleetProg) run(reg *obs.Registry) (outcome, error) {
	cfg := g.cfg
	cfg.Progress = g.progress
	agg, rep, err := runFleet(cfg, reg)
	if err != nil {
		return outcome{}, err
	}
	g.agg = agg
	return outcome{
		report:    rep,
		bytes:     agg.WireBytes,
		homes:     agg.Homes,
		attempted: g.homes,
		failed:    g.homes - agg.Homes,
	}, nil
}
