// Command moniotr runs the full measurement campaign end to end — both
// labs, controlled + idle + uncontrolled experiments — and emits every
// table and figure of the paper's evaluation.
//
// Usage:
//
//	moniotr [-scale tiny|quick|bench|paper] [-csv dir] [-json] [-tables 2,5,11]
//	        [-skip-uncontrolled]
//	        [-export-captures dir] [-ingest dir] [-stream] [-strict]
//	        [-dataset name|auto] [-infer-labels]
//	        [-transfer-matrix]
//	        [-metrics out.json] [-pprof :6060]
//	        [-faults clean|lossy-home|flaky-vpn|outage] [-fault-seed n] [-analysis-workers n]
//	        [-reshape pad,shape,dummy,vpn] [-reshape-seed n] [-reshape-budget f] [-reshape-matrix]
//	        [-fleet n] [-fleet-seed n]
//
// With -export-captures the campaign is additionally written to disk as
// a Mon(IoT)r-style capture directory (per-device pcaps + label
// sidecars). With -ingest the campaign is not synthesized at all:
// experiments are read back from such a directory and analysed,
// producing the same tables — byte-identical for a directory written by
// -export-captures at the same scale. -stream switches the ingest to
// the single-decode fold pass: each capture file is memory-mapped and
// decoded exactly once, experiments fold into per-file accumulators as
// they decode, and the accumulators merge in campaign order, so memory
// is bounded by the files in flight instead of the whole campaign.
// Output stays byte-identical to buffered ingest; only the memory
// high-water mark and wall time change.
//
// -dataset selects a foreign-capture adapter (internal/dataset): with
// -ingest it teaches the walk a foreign directory layout — pcapng
// containers, 802.1Q trunk captures, Linux cooked (SLL) gateway dumps —
// and with -export-captures it writes the campaign in that foreign
// layout instead of the native one. "-dataset auto" sniffs an ingest
// tree against every registered adapter. Whatever the container or link
// framing, the analysis output is byte-identical to native ingest of
// the same campaign. -infer-labels attributes unlabeled ingest traffic
// to catalog devices via identification evidence (MAC, OUI, DNS) and
// synthesizes label windows for it, reported with per-device confidence
// in an "ingest-labels" table; -strict still counts those packets as
// inferred rather than silently delivered.
//
// -transfer-matrix replaces the normal report with the §6.4
// cross-dataset experiment: the built-in dataset trio (study-era US and
// UK rosters plus a post-study home with firmware drift and unseen
// models) is synthesized, the device-identification forest is trained
// on each and evaluated on every other, and the train×eval weighted-F1
// matrix is printed with per-cell class overlap.
//
// With -metrics the campaign is instrumented end to end (stage wall
// times, per-collector visit counts, synthesis throughput, DNS and pcap
// volume), a progress line is printed to stderr every two seconds, and
// the final snapshot is written to the given JSON file. Metrics change
// no table output. -pprof serves net/http/pprof on the given address for
// live CPU/heap profiling of paper-scale runs.
//
// With -faults the campaign runs over an impaired network: the named
// profile injects deterministic packet loss, latency, DNS failures,
// server outages and VPN tunnel flaps, seeded by -fault-seed (default:
// the campaign seed). The "clean" profile is byte-identical to omitting
// the flag. With -strict an ingest run exits non-zero if anything was
// count-and-skipped (truncated files, unknown devices, unlabeled
// packets), for CI gating.
//
// With -reshape the campaign runs behind a traffic-reshaping defense
// stack (internal/reshape): packet padding to length buckets ("pad"),
// constant-rate inter-arrival shaping ("shape"), seeded dummy-traffic
// injection ("dummy") and VPN/NAT tunnel aggregation ("vpn"), applied in
// the given order to every experiment before any analysis sees it. The
// stack works for synthesized and -ingest campaigns alike. -reshape-seed
// seeds the engine (default: the campaign seed) and -reshape-budget sets
// the overhead budget in [0, 1] — 0 is a bit-for-bit no-op, larger
// budgets buy stronger defenses at higher byte/latency cost. A fixed
// (stack, seed, budget) triple reshapes byte-identically run-to-run and
// for any -analysis-workers value. -export-captures always writes the
// raw (pre-defense) campaign, so an exported directory can be re-ingested
// under any defense. -reshape-matrix replaces the normal report with the
// attack/defense robustness matrix: the campaign is replayed undefended
// and under every defense × budget cell, measuring inference F1, idle
// detections, table drift and byte/latency overhead per cell.
//
// -analysis-workers bounds the analysis-side parallelism (collector
// fold workers, forest training, model evaluation); 0 means one worker
// per core and 1 means one fold worker and serial training. Every table
// is byte-identical for any value — the flag trades wall time only.
//
// With -json the selected tables are written to stdout as one canonical
// JSON document (the same renderer the moniotrd report API uses, so the
// two are byte-identical for the same campaign) instead of aligned
// text. -csv continues to work alongside it.
//
// With -fleet N the two-lab study is replaced by a fleet-scale campaign:
// N simulated homes, each with a deterministically drawn device mix,
// region, fault profile and staggered clock, folded home-by-home into
// sketch-backed aggregates (see internal/fleet). -fleet-seed derives the
// whole fleet; -analysis-workers bounds cross-home parallelism, and the
// fleet tables are byte-identical for any value. -json, -csv, -tables
// and -metrics work as in study mode; the other campaign flags do not
// apply.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strings"
	"time"

	intliot "github.com/neu-sns/intl-iot-go"
	"github.com/neu-sns/intl-iot-go/internal/dataset"
	"github.com/neu-sns/intl-iot-go/internal/experiments/robustness"
	"github.com/neu-sns/intl-iot-go/internal/experiments/transfer"
	"github.com/neu-sns/intl-iot-go/internal/faults"
	"github.com/neu-sns/intl-iot-go/internal/fleet"
	"github.com/neu-sns/intl-iot-go/internal/ingest"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/report"
	"github.com/neu-sns/intl-iot-go/internal/reshape"
)

func main() {
	scale := flag.String("scale", "quick", "campaign scale: tiny, quick, bench or paper")
	csvDir := flag.String("csv", "", "also export tables as CSV into this directory")
	jsonOut := flag.Bool("json", false, "write the tables to stdout as one canonical JSON document instead of aligned text")
	exportDir := flag.String("export-captures", "", "write the campaign to this directory as per-device pcaps + label sidecars")
	ingestDir := flag.String("ingest", "", "skip synthesis and ingest a capture directory (as written by -export-captures)")
	tables := flag.String("tables", "all", "comma-separated table list (1-11, fig2, enc-metrics, pii, unexpected) or 'all'")
	skipUncontrolled := flag.Bool("skip-uncontrolled", false, "skip the §7.3 user-study simulation")
	metricsOut := flag.String("metrics", "", "instrument the campaign and write a metrics JSON snapshot to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	faultProfile := flag.String("faults", "", "run the campaign under a network-impairment profile (clean, lossy-home, flaky-vpn, outage)")
	faultSeed := flag.Int64("fault-seed", 0, "seed for the impairment engine (0 = campaign seed)")
	strict := flag.Bool("strict", false, "with -ingest: exit non-zero if any capture content was skipped")
	stream := flag.Bool("stream", false, "with -ingest: fold captures into the analysis as they decode instead of buffering the campaign")
	analysisWorkers := flag.Int("analysis-workers", 0, "analysis parallelism (fold workers, training): 0 = one worker per core; output is identical for any value")
	reshapeStack := flag.String("reshape", "", "apply a traffic-reshaping defense stack (comma-separated: pad, shape, dummy, vpn)")
	reshapeSeed := flag.Int64("reshape-seed", 0, "seed for the defense engine (0 = campaign seed)")
	reshapeBudget := flag.Float64("reshape-budget", 0.25, "defense overhead budget in [0, 1]; 0 disables every transform bit-for-bit")
	reshapeMatrix := flag.Bool("reshape-matrix", false, "sweep defense x budget against the campaign and print the robustness matrix")
	fleetHomes := flag.Int("fleet", 0, "run a fleet-scale campaign of N simulated homes instead of the two-lab study")
	fleetSeed := flag.Int64("fleet-seed", 1, "seed deriving the whole fleet (device mixes, fault profiles, clocks)")
	datasetName := flag.String("dataset", "", "with -ingest/-export-captures: foreign dataset adapter ("+strings.Join(dataset.Names(), ", ")+", or 'auto' to sniff an ingest tree)")
	inferLabels := flag.Bool("infer-labels", false, "with -ingest: attribute unlabeled traffic to devices via identification evidence and synthesize label windows")
	transferMatrix := flag.Bool("transfer-matrix", false, "train the device-identification forest on each built-in dataset, evaluate on every other, and print the cross-dataset F1 matrix")
	flag.Parse()

	if _, err := faults.ByName(*faultProfile); err != nil {
		fmt.Fprintf(os.Stderr, "moniotr: %v\n", err)
		os.Exit(2)
	}
	if _, err := reshape.ParseStack(*reshapeStack); err != nil {
		fmt.Fprintf(os.Stderr, "moniotr: %v\n", err)
		os.Exit(2)
	}

	var adapter dataset.Adapter
	if *datasetName != "" {
		if *ingestDir == "" && *exportDir == "" {
			fmt.Fprintln(os.Stderr, "moniotr: -dataset requires -ingest or -export-captures")
			os.Exit(2)
		}
		var err error
		if *datasetName == "auto" {
			if *ingestDir == "" {
				fmt.Fprintln(os.Stderr, "moniotr: -dataset auto needs an -ingest tree to sniff")
				os.Exit(2)
			}
			adapter, err = dataset.Detect(*ingestDir)
		} else {
			adapter, err = dataset.ByName(*datasetName)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "moniotr: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "moniotr: dataset adapter %s: %s\n", adapter.Name(), adapter.Description())
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "moniotr: pprof: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "moniotr: pprof listening on %s\n", *pprofAddr)
	}

	if *fleetHomes > 0 {
		if *faultProfile != "" {
			fmt.Fprintln(os.Stderr, "moniotr: -faults is ignored with -fleet (homes draw their own fault profiles)")
		}
		runFleet(*fleetHomes, *fleetSeed, *analysisWorkers, *tables, *jsonOut, *csvDir, *metricsOut)
		return
	}

	if *transferMatrix {
		runTransferMatrix(*analysisWorkers, *jsonOut, *csvDir)
		return
	}

	cfg, err := intliot.ScaleConfig(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "moniotr: %v\n", err)
		os.Exit(2)
	}

	cfg.FaultProfile = *faultProfile
	cfg.FaultSeed = *faultSeed
	cfg.Reshape = *reshapeStack
	cfg.ReshapeSeed = *reshapeSeed
	cfg.ReshapeBudget = *reshapeBudget

	if *reshapeMatrix {
		runReshapeMatrix(cfg, *analysisWorkers, *jsonOut, *csvDir)
		return
	}

	want := map[string]bool{}
	for _, t := range strings.Split(*tables, ",") {
		want[strings.TrimSpace(t)] = true
	}
	selected := func(key string) bool { return want["all"] || want[key] }

	start := time.Now()
	var study *intliot.Study
	var src *ingest.Source
	if *ingestDir != "" {
		if *faultProfile != "" && *faultProfile != "clean" {
			fmt.Fprintln(os.Stderr, "moniotr: -faults shapes synthesis only and is ignored with -ingest")
		}
		if *stream {
			fmt.Fprintf(os.Stderr, "moniotr: streaming captures from %s...\n", *ingestDir)
		} else {
			fmt.Fprintf(os.Stderr, "moniotr: ingesting captures from %s...\n", *ingestDir)
		}
		opts := ingest.Options{
			Stream:      *stream,
			InferLabels: *inferLabels,
		}
		if adapter != nil {
			opts.Layout = adapter.Layout()
		}
		var err error
		src, err = ingest.Open(*ingestDir, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "moniotr: %v\n", err)
			os.Exit(1)
		}
		eng, err := intliot.NewReshapeEngine(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "moniotr: %v\n", err)
			os.Exit(2)
		}
		study = intliot.NewStudyFromSource(reshape.Wrap(src, eng))
		if !*skipUncontrolled {
			fmt.Fprintln(os.Stderr, "moniotr: capture directories carry no user-study campaign; skipping uncontrolled analysis")
			*skipUncontrolled = true
		}
	} else {
		fmt.Fprintf(os.Stderr, "moniotr: building labs and running the %s-scale campaign...\n", *scale)
		s, err := intliot.NewStudy(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "moniotr: %v\n", err)
			os.Exit(1)
		}
		study = s
	}
	study.SetAnalysisWorkers(*analysisWorkers)
	var reg *intliot.Metrics
	stopProgress := func() {}
	if *metricsOut != "" {
		// Fail fast on an unwritable path: a paper-scale campaign runs
		// for minutes, and losing its metrics at the end is worse than
		// refusing to start.
		probe, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "moniotr: metrics export: %v\n", err)
			os.Exit(1)
		}
		probe.Close()
		reg = intliot.NewMetrics()
		study.SetObs(reg)
		obs.SetDefault(reg) // pcap round-trip counters
		stopProgress = progressLoop(reg)
	}
	study.Run()
	if src != nil {
		fmt.Fprintf(os.Stderr, "moniotr: ingest: %s\n", src.Report())
		if *strict {
			if err := src.Report().Strict(); err != nil {
				fmt.Fprintf(os.Stderr, "moniotr: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if *exportDir != "" {
		if src != nil {
			fmt.Fprintln(os.Stderr, "moniotr: -export-captures is ignored with -ingest")
		} else if adapter != nil {
			if err := adapter.Export(*exportDir, study.Pipeline().Runner()); err != nil {
				fmt.Fprintf(os.Stderr, "moniotr: capture export: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "moniotr: wrote %s-layout captures to %s\n", adapter.Name(), *exportDir)
		} else if err := ingest.Export(*exportDir, study.Pipeline().Runner()); err != nil {
			fmt.Fprintf(os.Stderr, "moniotr: capture export: %v\n", err)
			os.Exit(1)
		} else {
			fmt.Fprintf(os.Stderr, "moniotr: wrote per-device captures to %s\n", *exportDir)
		}
	}
	if !*skipUncontrolled {
		if err := study.RunUncontrolled(); err != nil {
			fmt.Fprintf(os.Stderr, "moniotr: %v\n", err)
			os.Exit(1)
		}
	}
	stopProgress()
	study.Summary(os.Stderr)
	fmt.Fprintf(os.Stderr, "moniotr: campaign done in %v\n\n", time.Since(start).Round(time.Millisecond))

	doc := study.ReportDocument()
	if src != nil {
		if lt := src.Report().LabelTable(); lt != nil {
			doc.Add("ingest-labels", lt)
		}
	}
	doc = doc.Filter(selected)
	if *jsonOut {
		if err := doc.RenderJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "moniotr: json render: %v\n", err)
			os.Exit(1)
		}
	} else {
		for _, e := range doc.Entries {
			e.Table.Render(os.Stdout)
			fmt.Println()
		}
	}
	if *csvDir != "" {
		for _, e := range doc.Entries {
			if err := exportCSV(*csvDir, e.Key, e.Table); err != nil {
				fmt.Fprintf(os.Stderr, "moniotr: csv export: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *metricsOut != "" {
		if err := reg.WriteJSONFile(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "moniotr: metrics export: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "moniotr: wrote metrics to %s\n", *metricsOut)
	}
}

// runReshapeMatrix executes the -reshape-matrix mode: replay the
// campaign undefended and under every default defense × budget cell,
// then render the robustness matrix through the -json/-csv machinery.
func runReshapeMatrix(cfg intliot.Config, workers int, jsonOut bool, csvDir string) {
	fmt.Fprintln(os.Stderr, "moniotr: sweeping defense x budget (one full campaign per cell)...")
	start := time.Now()
	lastLine := time.Now()
	res, err := robustness.Sweep(robustness.Config{
		Campaign: cfg,
		Seed:     cfg.ReshapeSeed,
		Workers:  workers,
		Progress: func(done, total int) {
			if time.Since(lastLine) >= 2*time.Second || done == total {
				fmt.Fprintf(os.Stderr, "moniotr: matrix progress: %d/%d cells\n", done, total)
				lastLine = time.Now()
			}
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "moniotr: reshape matrix: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "moniotr: matrix done in %v\n\n", time.Since(start).Round(time.Millisecond))

	tbl := res.Table()
	if jsonOut {
		doc := &report.Document{}
		doc.Add("reshape-matrix", tbl)
		if err := doc.RenderJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "moniotr: json render: %v\n", err)
			os.Exit(1)
		}
	} else {
		tbl.Render(os.Stdout)
	}
	if csvDir != "" {
		if err := exportCSV(csvDir, "reshape-matrix", tbl); err != nil {
			fmt.Fprintf(os.Stderr, "moniotr: csv export: %v\n", err)
			os.Exit(1)
		}
	}
}

// runTransferMatrix executes the -transfer-matrix mode: synthesize the
// built-in dataset trio, train the §6.1 forest on each, evaluate on
// every other, and render the train×eval F1 matrix plus dataset sizes
// through the -json/-csv machinery.
func runTransferMatrix(workers int, jsonOut bool, csvDir string) {
	fmt.Fprintln(os.Stderr, "moniotr: synthesizing transfer datasets and training one forest per cell...")
	start := time.Now()
	lastLine := time.Now()
	res, err := transfer.Run(transfer.Config{
		Workers: workers,
		Progress: func(done, total int) {
			if time.Since(lastLine) >= 2*time.Second || done == total {
				fmt.Fprintf(os.Stderr, "moniotr: transfer progress: %d/%d cells\n", done, total)
				lastLine = time.Now()
			}
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "moniotr: transfer matrix: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "moniotr: transfer matrix done in %v\n\n", time.Since(start).Round(time.Millisecond))

	doc := &report.Document{}
	doc.Add("transfer-matrix", res.Matrix())
	doc.Add("transfer-datasets", res.SizeTable())
	if jsonOut {
		if err := doc.RenderJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "moniotr: json render: %v\n", err)
			os.Exit(1)
		}
	} else {
		for _, e := range doc.Entries {
			e.Table.Render(os.Stdout)
			fmt.Println()
		}
	}
	if csvDir != "" {
		for _, e := range doc.Entries {
			if err := exportCSV(csvDir, e.Key, e.Table); err != nil {
				fmt.Fprintf(os.Stderr, "moniotr: csv export: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// runFleet executes the -fleet campaign mode: plan N homes, drive each
// through synthesis + analysis, fold into sketch-backed aggregates, and
// render the fleet report document through the same -json/-csv/-tables
// machinery as study mode.
func runFleet(homes int, seed int64, workers int, tables string, jsonOut bool, csvDir, metricsOut string) {
	want := map[string]bool{}
	for _, t := range strings.Split(tables, ",") {
		want[strings.TrimSpace(t)] = true
	}
	selected := func(key string) bool { return want["all"] || want[key] }

	var reg *intliot.Metrics
	if metricsOut != "" {
		probe, err := os.Create(metricsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "moniotr: metrics export: %v\n", err)
			os.Exit(1)
		}
		probe.Close()
		reg = intliot.NewMetrics()
	}

	fmt.Fprintf(os.Stderr, "moniotr: running a %d-home fleet campaign (seed %d)...\n", homes, seed)
	start := time.Now()
	lastLine := time.Now()
	agg, err := fleet.Run(context.Background(), fleet.Config{
		Homes:   homes,
		Seed:    seed,
		Workers: workers,
		Progress: func(done, total int) {
			if time.Since(lastLine) >= 2*time.Second || done == total {
				fmt.Fprintf(os.Stderr, "moniotr: fleet progress: %d/%d homes\n", done, total)
				lastLine = time.Now()
			}
		},
	}, reg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "moniotr: fleet: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "moniotr: fleet campaign done in %v\n\n", time.Since(start).Round(time.Millisecond))

	doc := report.FleetDocument(agg).Filter(selected)
	if jsonOut {
		if err := doc.RenderJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "moniotr: json render: %v\n", err)
			os.Exit(1)
		}
	} else {
		for _, e := range doc.Entries {
			e.Table.Render(os.Stdout)
			fmt.Println()
		}
	}
	if csvDir != "" {
		for _, e := range doc.Entries {
			if err := exportCSV(csvDir, e.Key, e.Table); err != nil {
				fmt.Fprintf(os.Stderr, "moniotr: csv export: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if metricsOut != "" {
		if err := reg.WriteJSONFile(metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "moniotr: metrics export: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "moniotr: wrote metrics to %s\n", metricsOut)
	}
}

// progressLoop prints a campaign progress line to stderr every two
// seconds until the returned stop function is called.
func progressLoop(reg *intliot.Metrics) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				fmt.Fprintf(os.Stderr,
					"moniotr: progress: stage=%s experiments=%d packets=%.1fM bytes=%s dns=%d\n",
					reg.Label("stage"),
					reg.Counter("experiments_total").Value(),
					float64(reg.Counter("packets_synthesized_total").Value())/1e6,
					obs.HumanBytes(reg.Counter("bytes_synthesized_total").Value()),
					reg.Counter("dns_queries_total").Value())
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

func exportCSV(dir, key string, tbl *intliot.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "table_"+key+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tbl.RenderCSV(f)
}
