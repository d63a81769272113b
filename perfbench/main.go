// Command perfbench is the repository benchmark: it drives the library
// entry points cmd/moniotr uses over one seeded workload, checks every
// run's report byte for byte against a reference it generates itself,
// and prints end-to-end metrics (or, with -trace 1, per-layer metrics)
// with a final one-line JSON summary. See README.md.
//
//	go run . -workload campaign -seed 1 -seconds 10 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one named, unit-bearing number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// minSetupSamples is how many times set-up is measured in a run;
// setup_s is their median.
const minSetupSamples = 31

// errMismatch marks a report that differs from its reference.
var errMismatch = errors.New("report differs from the self-generated reference")

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadOrder, ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed runs measure")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for fixtures")
	flag.Parse()

	if err := benchmark(os.Stdout, *name, *seed, *seconds, *trace == 1, *dir, fullSizes); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// benchmark runs one workload and writes its report lines and result to
// out. Any error — including a report that differs from the reference —
// fails the run without a result line.
func benchmark(out io.Writer, name string, seed int64, seconds float64, traced bool, dir string, sz sizes) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadOrder, ", "))
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	runDir := filepath.Join(dir, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	p := params{seed: seed, workers: nproc, dir: runDir, size: sz}
	w := mk()
	t0 := time.Now()
	if err := w.prepare(p); err != nil {
		return fmt.Errorf("prepare %s: %w", name, err)
	}
	fmt.Fprintf(out, "# prepare %s: %.2fs (fixtures and reference, untimed)\n", name, time.Since(t0).Seconds())

	e2e, err := measure(w, seconds, sz.minRuns)
	if err != nil {
		return err
	}
	ctx := [][2]string{
		{"workload", name},
		{"seed", fmt.Sprint(seed)},
		{"go", runtime.Version()},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"nproc", fmt.Sprint(nproc)},
		{"git_sha", gitSHA()},
		{"trace", fmt.Sprint(traced)},
	}
	ctx = append(ctx, w.describe()...)
	for _, kv := range ctx {
		fmt.Fprintf(out, "context %s=%s\n", kv[0], kv[1])
	}
	res := result{Correct: true, Attempted: e2e.attempted, Failed: e2e.failed}
	if traced {
		layers, err := traceLayers(name, w, p, e2e)
		if err != nil {
			return err
		}
		res.Metrics = layers.metrics
		res.Attempted += layers.attempted
		res.Failed += layers.failed
		for _, kv := range layers.context {
			fmt.Fprintf(out, "context %s=%s\n", kv[0], kv[1])
		}
	} else {
		res.Metrics = e2e.metrics()
		for _, line := range e2e.extra() {
			fmt.Fprintln(out, line)
		}
	}
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Fprintf(out, "metric %s %.6g %s\n", k, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// e2e holds the untraced runs' samples.
type e2e struct {
	setup, wall, cpu []float64
	alloc, mbps      []float64
	homesPerS        []float64
	peakHeapMB       float64 // from heapPass
	// attempted and failed are one run's operations; every run repeats
	// them exactly, so they do not depend on how many runs fit.
	attempted, failed  int
	iterations         int
	bytesPerRun, homes int64
}

// measure makes the heap pass, which also warms the program up, then
// runs set-up and the workload repeatedly for the given number of
// seconds (at least minRuns runs), checking every report against the
// reference and its operation counts with the first run's, and finally
// tops set-up samples up to minSetupSamples.
func measure(w workload, seconds float64, minRuns int) (*e2e, error) {
	m := &e2e{}
	var err error
	if m.peakHeapMB, err = heapPass(w); err != nil {
		return nil, err
	}
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for m.iterations < minRuns || time.Since(start) < budget {
		prog, setupS, err := timedSetup(w)
		if err != nil {
			return nil, err
		}
		var o outcome
		s, err := region(func() error {
			var err error
			o, err = prog.run(nil)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", m.iterations, err)
		}
		if !bytes.Equal(o.report, w.reference()) {
			return nil, fmt.Errorf("run %d: %w", m.iterations, errMismatch)
		}
		if m.iterations == 0 {
			m.attempted, m.failed = o.attempted, o.failed
		} else if o.attempted != m.attempted || o.failed != m.failed {
			return nil, fmt.Errorf("run %d: %d of %d operations failed, run 0: %d of %d", m.iterations, o.failed, o.attempted, m.failed, m.attempted)
		}
		m.iterations++
		m.setup = append(m.setup, setupS)
		m.wall = append(m.wall, s.wall)
		m.cpu = append(m.cpu, s.cpu)
		m.alloc = append(m.alloc, s.allocMB)
		m.mbps = append(m.mbps, float64(o.bytes)/1e6/s.wall)
		m.homesPerS = append(m.homesPerS, float64(o.homes)/s.wall)
		m.bytesPerRun, m.homes = o.bytes, int64(o.homes)
	}
	for len(m.setup) < minSetupSamples {
		_, setupS, err := timedSetup(w)
		if err != nil {
			return nil, err
		}
		m.setup = append(m.setup, setupS)
	}
	return m, nil
}

// heapGCPercent is the GC target of the heap pass.
const heapGCPercent = 25

// heapPass runs the workload once, untimed, with the GC target lowered
// to heapGCPercent, and returns the highest live heap seen. Made before
// the timed runs, it is also their warm-up: the inputs are in the page
// cache and lazy initialisation is done when timing starts.
//
// Live heap is only measured when a GC cycle ends, and a cycle counts
// everything allocated while it marks as live. At the default target a
// fleet run with ~3 MB reachable read anywhere from 3.1 to 14.6 MB
// depending on where cycles fell; at 25 the same runs read within a few
// percent of each other. The lower target changes only when memory is
// measured, not what the program keeps reachable, and the timed runs
// keep the default.
func heapPass(w workload) (float64, error) {
	prog, _, err := timedSetup(w)
	if err != nil {
		return 0, err
	}
	old := debug.SetGCPercent(heapGCPercent)
	defer debug.SetGCPercent(old)
	var o outcome
	s, err := region(func() error {
		var err error
		o, err = prog.run(nil)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("heap pass: %w", err)
	}
	if !bytes.Equal(o.report, w.reference()) {
		return 0, fmt.Errorf("heap pass: %w", errMismatch)
	}
	return s.peakLiveMB, nil
}

// timedSetup builds one program, timing only the set-up call.
func timedSetup(w workload) (program, float64, error) {
	runtime.GC()
	var prog program
	var err error
	secs := timeIt(func() { prog, err = w.setup() })
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return prog, secs, nil
}

// metrics are the end-to-end metrics: the median over the timed runs,
// and the heap pass's peak.
func (m *e2e) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":      {median(m.setup), "s"},
		"wall_s":       {median(m.wall), "s"},
		"mb_per_s":     {median(m.mbps), "MB/s"},
		"cpu_s":        {median(m.cpu), "s"},
		"peak_heap_mb": {m.peakHeapMB, "MB"},
		"alloc_mb":     {median(m.alloc), "MB"},
	}
}

// extra are the named end-to-end figures that the result line carries
// elsewhere: failed_frac is its failed/attempted pair, and homes_per_s
// (fleet only) is homes over wall_s.
func (m *e2e) extra() []string {
	frac := float64(m.failed) / float64(m.attempted)
	lines := []string{
		fmt.Sprintf("metric failed_frac %g ratio", frac),
		fmt.Sprintf("# runs=%d bytes_per_run=%d", m.iterations, m.bytesPerRun),
		fmt.Sprintf("# wall_s %.4f", m.wall),
		fmt.Sprintf("# cpu_s %.4f", m.cpu),
		fmt.Sprintf("# setup_s %.5f", m.setup),
	}
	if m.homes > 0 {
		lines = append(lines, fmt.Sprintf("metric homes_per_s %.6g 1/s", median(m.homesPerS)))
	}
	return lines
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// gitSHA is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
