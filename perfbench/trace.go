package main

// The traced run. It re-runs the workload once with an obs registry
// attached (its report must still match the reference), then times each
// layer on its own by calling the layer's public functions from here.
// Layers the workload executes are driven over the workload's own
// inputs; layers it never executes are driven over seeded side inputs —
// the fixture campaign's pcap and pcapng exports for pcapio, netx,
// ingest and dataset, and a small seeded fleet for fleet and sketch — so
// every traced run reports the same metric set. No tracing is added
// inside the program.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/analysis"
	"github.com/neu-sns/intl-iot-go/internal/cloud"
	"github.com/neu-sns/intl-iot-go/internal/dataset"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/fleet"
	"github.com/neu-sns/intl-iot-go/internal/geo"
	"github.com/neu-sns/intl-iot-go/internal/ingest"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/pcapio"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

type layerResult struct {
	metrics           map[string]metric
	context           [][2]string
	attempted, failed int
}

// tracer accumulates per-layer metrics and the busy seconds of the
// layers the workload itself executes (for other.busy_s).
type tracer struct {
	m       map[string]metric
	ctx     [][2]string
	ownBusy float64
}

func (t *tracer) set(name string, v float64, unit string) { t.m[name] = metric{v, unit} }

// own records busy seconds of a layer on the workload's own path.
func (t *tracer) own(secs float64) { t.ownBusy += secs }

// repeatMedian runs f n times and returns the median wall seconds.
func repeatMedian(n int, f func() error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		var err error
		xs = append(xs, timeIt(func() { err = f() }))
		if err != nil {
			return 0, err
		}
	}
	return median(xs), nil
}

func traceLayers(name string, w workload, p params, base *e2e) (*layerResult, error) {
	t := &tracer{m: map[string]metric{}}

	// The traced workload run: obs attached, report checked.
	reg := obs.NewRegistry()
	prog, openS, err := timedSetup(w)
	if err != nil {
		return nil, err
	}
	var gaps []float64
	if fp, ok := prog.(*fleetProg); ok {
		last := time.Now()
		fp.progress = func(done, total int) {
			now := time.Now()
			gaps = append(gaps, now.Sub(last).Seconds()*1e3)
			last = now
		}
	}
	var o outcome
	s, err := region(func() error {
		var err error
		o, err = prog.run(reg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if !bytes.Equal(o.report, w.reference()) {
		return nil, fmt.Errorf("traced run: %w", errMismatch)
	}
	t.set("trace.overhead_s", s.wall-median(base.wall), "s")

	renderS, err := repeatMedian(3, func() error {
		rep, err := prog.render()
		if err == nil && !bytes.Equal(rep, w.reference()) {
			err = fmt.Errorf("re-render: %w", errMismatch)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	t.set("report.render_s", renderS, "s")
	t.own(renderS)

	side := &sideInputs{p: p}
	switch wl := w.(type) {
	case *campaign:
		err = traceStudyLayers(t, wl.cfg, p)
		if err == nil {
			err = traceCaptureLayers(t, side, "", "native", nil)
		}
		if err == nil {
			err = traceFleetLayers(t, side, nil, nil)
		}
	case *ingestWL:
		// Synthesis is not on the ingest path: it is timed over the
		// fixture campaign the tree was exported from.
		err = traceSynthesis(t, fixtureConfig(p), false)
		if err == nil {
			err = traceCollectorsOnTree(t, wl)
		}
		if err == nil {
			r := prog.(*ingestProg).src.Report()
			err = traceCaptureLayers(t, side, wl.tree, wl.name(), &ingestTraced{
				openS: openS, report: r, reg: reg,
			})
		}
		if err == nil {
			err = traceFleetLayers(t, side, nil, nil)
		}
	case *fleetWL:
		fp := prog.(*fleetProg)
		err = traceHomes(t, wl.cfg, fp.agg)
		if err == nil {
			err = traceCaptureLayers(t, side, "", "native", nil)
		}
		if err == nil {
			err = traceFleetLayers(t, side, fp.agg, gaps)
		}
	default:
		err = fmt.Errorf("no trace for workload %s", name)
	}
	if err != nil {
		return nil, err
	}
	t.set("other.busy_s", median(base.cpu)-t.ownBusy, "s")
	t.ctx = append(t.ctx, [2]string{"trace.wall_s", fmt.Sprintf("%.4f", s.wall)})
	return &layerResult{metrics: t.m, context: t.ctx, attempted: o.attempted, failed: o.failed}, nil
}

// ---- synthesis and analysis -------------------------------------------

// traceSynthesis times a synthesis-only pass of the campaign (CPU
// seconds across the synthesis workers) and counts what it made.
func traceSynthesis(t *tracer, cfg experiments.Config, own bool) error {
	r, err := experiments.NewRunner(cfg)
	if err != nil {
		return err
	}
	var st [2]experiments.Stats
	c0 := cpuSeconds()
	st[0] = r.RunControlled(func(*testbed.Experiment) {})
	st[1] = r.RunIdle(func(*testbed.Experiment) {})
	busy := cpuSeconds() - c0
	t.set("experiments.synth_s", busy, "s")
	t.set("experiments.count", float64(st[0].Experiments+st[1].Experiments), "count")
	t.set("experiments.packets", float64(st[0].Packets+st[1].Packets), "count")
	if own {
		t.own(busy)
	}
	return nil
}

// collectorProbe drives the §4–§7 collectors serially, timing each
// public call: the replay the serial pipeline performs, from the
// benchmark's own files.
type collectorProbe struct {
	dest     *analysis.DestCollector
	enc      *analysis.EncCollector
	content  *analysis.ContentCollector
	identify *analysis.IdentifyCollector
	detector *analysis.Detector
	hits     *analysis.DetectResult
	// degrade is the workload's normalization step.
	degrade func(*testbed.Experiment)

	busy   map[string]time.Duration
	visits map[string]int
}

var collectorNames = []string{"degrade", "dest", "enc", "content", "identify", "detect"}

// newCollectorProbe wires fresh collectors to an Internet model the way
// analysis.NewPipeline does.
func newCollectorProbe(internet *cloud.Internet) *collectorProbe {
	locators := map[string]*geo.Locator{"US": internet.Locator("US"), "GB": internet.Locator("GB")}
	return &collectorProbe{
		dest:     analysis.NewDestCollector(internet.Registry, locators),
		enc:      analysis.NewEncCollector(),
		content:  analysis.NewContentCollector(),
		identify: analysis.NewIdentifyCollector(),
		degrade:  pipelineDegrade,
		busy:     map[string]time.Duration{},
		visits:   map[string]int{},
	}
}

// pipelineDegrade is the pipeline's normalization: retransmission dedup
// then cover-flow stripping.
func pipelineDegrade(exp *testbed.Experiment) {
	pkts, _ := analysis.DedupRetransmissions(exp.Packets)
	exp.Packets, _ = analysis.FilterCoverFlows(pkts)
}

func (c *collectorProbe) call(name string, f func()) {
	t0 := time.Now()
	f()
	c.busy[name] += time.Since(t0)
	c.visits[name]++
}

func (c *collectorProbe) controlled(exp *testbed.Experiment) {
	c.call("degrade", func() { c.degrade(exp) })
	c.call("dest", func() { c.dest.Visit(exp) })
	c.call("enc", func() { c.enc.Visit(exp) })
	c.call("content", func() { c.content.Visit(exp) })
	c.call("identify", func() { c.identify.Visit(exp) })
	exp.Done()
}

// train times model training and detector construction.
func (c *collectorProbe) train(t *tracer, workers int, own bool) {
	cfg := inferConfig(workers)
	var results []analysis.InferenceResult
	train := timeIt(func() { results = c.content.Infer(cfg) })
	build := timeIt(func() { c.detector = analysis.NewDetector(c.content, results, cfg) })
	c.hits = analysis.NewDetectResult()
	t.set("ml.train_s", train, "s")
	t.set("analysis.detector_build_s", build, "s")
	if own {
		t.own(train + build)
	}
}

func (c *collectorProbe) idle(exp *testbed.Experiment) {
	c.call("degrade", func() { c.degrade(exp) })
	c.call("dest", func() { c.dest.Visit(exp) })
	c.call("enc", func() { c.enc.Visit(exp) })
	c.call("detect", func() { c.detector.VisitIdle(exp, c.hits) })
	exp.Done()
}

// report sets analysis.<c>.busy_s and us_per_visit; own lists the
// collectors the workload's own path runs.
func (c *collectorProbe) report(t *tracer, own map[string]bool) {
	for _, n := range collectorNames {
		busy := c.busy[n].Seconds()
		t.set("analysis."+n+".busy_s", busy, "s")
		per := 0.0
		if v := c.visits[n]; v > 0 {
			per = busy * 1e6 / float64(v)
		}
		t.set("analysis."+n+".us_per_visit", per, "us")
		if own[n] {
			t.own(busy)
		}
	}
}

var allCollectors = map[string]bool{"degrade": true, "dest": true, "enc": true, "content": true, "identify": true, "detect": true}

// traceStudyLayers times synthesis, then replays a second synthesis
// pass (one synthesis worker, so the serial collector calls are not
// preempted) through the collector probe.
func traceStudyLayers(t *tracer, cfg experiments.Config, p params) error {
	if err := traceSynthesis(t, cfg, true); err != nil {
		return err
	}
	cfg.Workers = 1
	r, err := experiments.NewRunner(cfg)
	if err != nil {
		return err
	}
	c := newCollectorProbe(r.Internet())
	r.RunControlled(c.controlled)
	c.train(t, p.workers, true)
	r.RunIdle(c.idle)
	c.report(t, allCollectors)
	return nil
}

// traceCollectorsOnTree replays the workload's own capture tree,
// buffered, through the collector probe.
func traceCollectorsOnTree(t *tracer, w *ingestWL) error {
	opts, err := w.options()
	if err != nil {
		return err
	}
	opts.Stream = false
	src, err := ingest.Open(w.tree, opts)
	if err != nil {
		return err
	}
	c := newCollectorProbe(src.Internet())
	src.RunControlled(c.controlled)
	c.train(t, w.p.workers, true)
	src.RunIdle(c.idle)
	c.report(t, allCollectors)
	return nil
}

// ---- pcapio, netx, ingest, dataset -----------------------------------

// sideInputs exports the fixture campaign's capture trees on demand, for
// workloads whose own path has no such tree.
type sideInputs struct {
	p     params
	trees map[string]string
}

// tree returns a capture tree of the fixture campaign in the named
// layout ("native" or "pcapng"), exporting it on first use.
func (s *sideInputs) tree(layout string) (string, error) {
	if dir, ok := s.trees[layout]; ok {
		return dir, nil
	}
	dir := filepath.Join(s.p.dir, "side-"+layout)
	r, err := experiments.NewRunner(fixtureConfig(s.p))
	if err != nil {
		return "", err
	}
	if err := exportTree(dir, layout, r); err != nil {
		return "", fmt.Errorf("side %s export: %w", layout, err)
	}
	if s.trees == nil {
		s.trees = map[string]string{}
	}
	s.trees[layout] = dir
	return dir, nil
}

// decodeStats is an isolated pcapio+netx pass over one tree.
type decodeStats struct {
	records      int
	pcapioS      float64
	pcapioAllocs uint64
	netxS        map[uint32]float64
	netxN        map[uint32]int
	netxAllocs   uint64
}

func (d *decodeStats) decodeS() float64 {
	s := d.pcapioS
	for _, v := range d.netxS {
		s += v
	}
	return s
}

const (
	linkEthernet = 1
	linkSLL      = 113
)

// decodeTree opens every capture file under root whose name has the
// given suffix with pcapio.OpenFile and reads it with Next, then decodes
// each record with netx.DecodeLink, grouped by link type. The two
// passes are timed and their heap allocations counted separately.
func decodeTree(root, suffix string) (*decodeStats, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, suffix) {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	d := &decodeStats{netxS: map[uint32]float64{}, netxN: map[uint32]int{}}
	byLink := map[uint32][]pcapio.Record{}
	runtime.GC()
	for _, path := range paths {
		for k := range byLink {
			byLink[k] = byLink[k][:0]
		}
		_, o0 := heapAllocs()
		t0 := time.Now()
		f, err := pcapio.OpenFile(path)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", path, err)
		}
		for {
			rec, err := f.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("read %s: %w", path, err)
			}
			link := rec.Link
			if link == 0 {
				link = f.LinkType()
			}
			byLink[link] = append(byLink[link], rec)
		}
		d.pcapioS += time.Since(t0).Seconds()
		_, o1 := heapAllocs()
		d.pcapioAllocs += o1 - o0
		for link, recs := range byLink {
			if len(recs) == 0 {
				continue
			}
			_, o0 := heapAllocs()
			t0 := time.Now()
			for _, rec := range recs {
				if _, err := netx.DecodeLink(rec.Time, rec.Data, link); err != nil {
					f.Close()
					return nil, fmt.Errorf("decode %s: %w", path, err)
				}
			}
			d.netxS[link] += time.Since(t0).Seconds()
			_, o1 := heapAllocs()
			d.netxAllocs += o1 - o0
			d.netxN[link] += len(recs)
			d.records += len(recs)
		}
		f.Close()
	}
	return d, nil
}

// ingestTraced is what the traced run of an ingest workload observed.
type ingestTraced struct {
	openS  float64
	report ingest.Report
	reg    *obs.Registry
}

// noopSink absorbs a fold pass: every experiment is released unread.
type noopSink struct{}

type noopUnit struct{}

func (noopSink) NewFoldUnit(bool) experiments.FoldUnit    { return noopUnit{} }
func (noopSink) MergeFoldUnit(bool, experiments.FoldUnit) {}
func (noopUnit) Fold(exp *testbed.Experiment)             { exp.Done() }

func releaseAll(exp *testbed.Experiment) { exp.Done() }

// perItem divides a total over n items (n < 1 counts as 1).
func perItem(total float64, n int) float64 { return total / math.Max(float64(n), 1) }

func nsPer(secs float64, n int) float64 { return perItem(secs*1e9, n) }

func counterValue(reg *obs.Registry, name string) float64 {
	return float64(reg.Counter(name).Value())
}

// captureSuffix is each layout's capture file extension.
var captureSuffix = map[string]string{"native": ".pcap", "pcapng": ".pcapng"}

// traceCaptureLayers times pcapio and netx over both capture
// containers, and ingest set-up, delivery and dataset detection over the
// workload's own tree (ownTree, in ownLayout) or the side fixture.
// traced carries the ingest workload's own traced run; it is nil for
// workloads whose path has no capture decode.
func traceCaptureLayers(t *tracer, side *sideInputs, ownTree, ownLayout string, traced *ingestTraced) error {
	trees := map[string]string{}
	for _, layout := range []string{"native", "pcapng"} {
		own := ""
		if layout == ownLayout {
			own = ownTree
		}
		if own == "" {
			var err error
			if own, err = side.tree(layout); err != nil {
				return err
			}
		}
		trees[layout] = own
	}
	dec := map[string]*decodeStats{}
	for layout, dir := range trees {
		d, err := decodeTree(dir, captureSuffix[layout])
		if err != nil {
			return err
		}
		if d.records == 0 {
			return fmt.Errorf("no records decoded under %s", dir)
		}
		dec[layout] = d
	}
	nat, ng := dec["native"], dec["pcapng"]
	own := dec[ownLayout]
	t.set("pcapio.records", float64(own.records), "count")
	t.set("pcapio.ns_per_record.pcap", nsPer(nat.pcapioS, nat.records), "ns")
	t.set("pcapio.ns_per_record.pcapng", nsPer(ng.pcapioS, ng.records), "ns")
	t.set("pcapio.allocs_per_record", perItem(float64(nat.pcapioAllocs+ng.pcapioAllocs), nat.records+ng.records), "count")
	t.set("netx.ns_per_packet.ethernet", nsPer(nat.netxS[linkEthernet], nat.netxN[linkEthernet]), "ns")
	t.set("netx.ns_per_packet.sll", nsPer(ng.netxS[linkSLL], ng.netxN[linkSLL]), "ns")
	t.set("netx.allocs_per_packet", perItem(float64(nat.netxAllocs+ng.netxAllocs), nat.records+ng.records), "count")
	if ng.netxN[linkSLL] == 0 {
		return fmt.Errorf("pcapng fixture holds no SLL records")
	}

	// Delivery: the workload's shape into a no-op sink — the fold pass
	// for the native tree, buffered replay for the pcapng tree.
	dir := trees[ownLayout]
	opts, err := layoutOpts(ownLayout)
	if err != nil {
		return err
	}
	opts.Workers = side.p.workers
	opts.Stream = ownLayout == "native"
	openS, err := repeatMedian(5, func() error {
		_, err := ingest.Open(dir, opts)
		return err
	})
	if err != nil {
		return err
	}
	src, err := ingest.Open(dir, opts)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	src.SetObs(reg)
	runtime.GC()
	c0 := cpuSeconds()
	if opts.Stream {
		src.RunSingleDecode(noopSink{})
	} else {
		src.RunControlled(releaseAll)
		src.RunIdle(releaseAll)
	}
	deliver := cpuSeconds() - c0 - own.decodeS()
	rep := src.Report()
	passes := counterValue(reg, "ingest_decode_passes_total")
	if traced != nil {
		openS, rep = traced.openS, traced.report
		passes = counterValue(traced.reg, "ingest_decode_passes_total")
	}
	fs, rs := skipped(rep)
	t.set("ingest.open_s", openS, "s")
	t.set("ingest.files", float64(rep.Files), "count")
	t.set("ingest.skipped", float64(fs+rs), "count")
	t.set("ingest.decode_passes", passes, "count")
	t.set("ingest.deliver_busy_s", deliver, "s")
	if traced != nil {
		t.own(own.decodeS() + deliver)
	}
	t.ctx = append(t.ctx,
		[2]string{"layers.capture_files", fmt.Sprint(rep.Files)},
		[2]string{"layers.capture_records", fmt.Sprint(rep.Records)},
		[2]string{"layers.capture_bytes", fmt.Sprint(rep.Bytes)},
	)

	detectS, err := repeatMedian(3, func() error {
		a, err := dataset.Detect(trees["pcapng"])
		if err == nil && a.Name() != "pcapng" {
			err = fmt.Errorf("dataset.Detect picked %s for the pcapng tree", a.Name())
		}
		return err
	})
	if err != nil {
		return err
	}
	t.set("dataset.detect_s", detectS, "s")
	return nil
}

// ---- fleet and sketch ------------------------------------------------

// traceFleetLayers reports the fleet and sketch layers from the fleet
// workload's traced run (agg, gaps) or, for other workloads, from a
// small seeded side fleet.
func traceFleetLayers(t *tracer, side *sideInputs, agg *fleet.Aggregate, gaps []float64) error {
	own := agg != nil
	if !own {
		cfg := fleetConfig(side.p.size.traceFleetHomes, side.p)
		last := time.Now()
		cfg.Progress = func(done, total int) {
			now := time.Now()
			gaps = append(gaps, now.Sub(last).Seconds()*1e3)
			last = now
		}
		var err error
		if agg, _, err = runFleet(cfg, nil); err != nil {
			return err
		}
	}
	t.set("fleet.home_gap_p50_ms", quantile(gaps, 0.5), "ms")
	t.set("fleet.home_gap_p95_ms", quantile(gaps, 0.95), "ms")
	t.set("fleet.aggregate_kb", float64(agg.SizeBytes())/1e3, "kB")
	mergeS, err := repeatMedian(5, func() error {
		fresh, err := fleet.NewAggregate(0, false)
		if err != nil {
			return err
		}
		return fresh.Merge(agg)
	})
	if err != nil {
		return err
	}
	t.set("sketch.merge_us", mergeS*1e6, "us")
	if own {
		t.own(mergeS * float64(agg.Homes))
	}
	return nil
}
