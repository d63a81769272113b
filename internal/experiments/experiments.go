package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/cloud"
	"github.com/neu-sns/intl-iot-go/internal/devices"
	"github.com/neu-sns/intl-iot-go/internal/faults"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/par"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// Config sizes the campaign.
type Config struct {
	// Seed drives every random draw in the campaign.
	Seed int64
	// AutomatedReps repeats app/voice interactions (paper: 30).
	AutomatedReps int
	// ManualReps repeats physical/manual interactions (paper: 3).
	ManualReps int
	// PowerReps repeats power experiments (paper: ≥3).
	PowerReps int
	// IdleHours is the idle capture length per column key; the paper's
	// Table 11 ran 28 (US), 31 (GB), 26.75 (US->GB) and 27 (GB->US)
	// hours.
	IdleHours map[string]float64
	// VPN enables the VPN repetition of every controlled experiment.
	VPN bool
	// UncontrolledDays sizes the US user study (paper: ~180 days).
	UncontrolledDays int
	// Workers bounds the traffic-synthesis parallelism (0 = GOMAXPROCS).
	// Results stream to the visitor in a deterministic order regardless
	// of the worker count, so analyses are reproducible.
	Workers int
	// FaultProfile names a built-in network-impairment profile
	// (faults.ByName); empty or "clean" runs the campaign over a
	// perfect network, byte-identical to campaigns from before fault
	// injection existed.
	FaultProfile string
	// FaultSeed seeds the impairment engine; 0 reuses Seed. For a fixed
	// (FaultProfile, FaultSeed) pair the campaign is byte-identical
	// run-to-run.
	FaultSeed int64
	// Reshape names a comma-separated traffic-reshaping defense stack
	// (reshape.ParseStack — "pad,shape,dummy,vpn"); empty, "none" or
	// "clean" runs the campaign undefended, byte-identical to campaigns
	// from before the defense engine existed. The runner itself never
	// reads these fields — the analysis pipeline applies the defense as
	// its prep step (analysis.Pipeline.Defense) — but they live here so
	// one Config describes a whole campaign for the CLI, the daemon and
	// the fleet alike.
	Reshape string
	// ReshapeSeed seeds the defense engine; 0 reuses Seed. For a fixed
	// (Reshape, ReshapeSeed, ReshapeBudget) triple the defended campaign
	// is byte-identical run-to-run.
	ReshapeSeed int64
	// ReshapeBudget is the defense overhead budget in [0, 1]; 0 makes
	// every configured transform a bit-for-bit identity.
	ReshapeBudget float64
}

// PaperConfig reproduces the paper's experiment counts.
func PaperConfig() Config {
	return Config{
		Seed:          1,
		AutomatedReps: 30,
		ManualReps:    3,
		PowerReps:     3,
		IdleHours: map[string]float64{
			"US": 28, "GB": 31, "US->GB": 26.75, "GB->US": 27,
		},
		VPN:              true,
		UncontrolledDays: 180,
	}
}

// QuickConfig is a scaled-down campaign for tests and examples.
func QuickConfig() Config {
	return Config{
		Seed:          1,
		AutomatedReps: 8,
		ManualReps:    2,
		PowerReps:     2,
		IdleHours: map[string]float64{
			"US": 3, "GB": 3, "US->GB": 2, "GB->US": 2,
		},
		VPN:              true,
		UncontrolledDays: 3,
	}
}

// Runner drives a campaign over both labs.
type Runner struct {
	US  *testbed.Lab
	UK  *testbed.Lab
	Cfg Config

	// metrics is nil unless SetObs attached a registry; every
	// instrumentation site below is nil-safe, so a disabled runner pays
	// only nil checks.
	metrics *obs.Registry

	// faultEng is nil unless Cfg names a non-clean fault profile.
	faultEng *faults.Engine
}

// SetObs attaches a metrics registry to the runner, both labs and the
// shared simulated Internet. The runner then reports per-leg synthesis
// latency, experiments/sec, worker utilization and queue depth per
// campaign phase. Call before running experiments; the registry is read
// concurrently by the synthesis workers afterwards.
func (r *Runner) SetObs(reg *obs.Registry) {
	r.metrics = reg
	r.US.SetObs(reg)
	r.UK.SetObs(reg)
	r.US.Internet.SetObs(reg) // shared with r.UK
	r.faultEng.SetObs(reg)    // nil-safe: no-op without a fault profile
}

// Faults returns the campaign's impairment engine (nil for a clean run).
func (r *Runner) Faults() *faults.Engine { return r.faultEng }

// Internet exposes the simulated server side both labs talk to; the
// analysis pipeline needs it to geolocate and classify destinations.
func (r *Runner) Internet() *cloud.Internet { return r.US.Internet }

// NewRunner builds both labs over a shared simulated Internet. A
// non-clean Cfg.FaultProfile attaches a deterministic impairment engine
// to the Internet and both labs; the clean profile attaches nothing and
// leaves every code path byte-identical to a pre-fault-injection run.
func NewRunner(cfg Config) (*Runner, error) {
	internet := cloud.New()
	prof, err := faults.ByName(cfg.FaultProfile)
	if err != nil {
		return nil, err
	}
	fseed := cfg.FaultSeed
	if fseed == 0 {
		fseed = cfg.Seed
	}
	eng := faults.New(prof, fseed)
	us, err := testbed.NewLab(devices.LabUS, internet, cfg.Seed)
	if err != nil {
		return nil, err
	}
	uk, err := testbed.NewLab(devices.LabUK, internet, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if eng.Enabled() {
		internet.SetFaults(eng)
		internet.SetSeed(fseed)
		us.SetFaults(eng)
		uk.SetFaults(eng)
	}
	return &Runner{US: us, UK: uk, Cfg: cfg, faultEng: eng}, nil
}

// Visitor consumes one experiment at a time.
type Visitor func(*testbed.Experiment)

// Stats summarizes a campaign leg.
type Stats struct {
	Experiments int
	Automated   int
	Manual      int
	Power       int
	Packets     int64
	Bytes       int64
}

func (s *Stats) absorb(exp *testbed.Experiment, automated bool) {
	s.Experiments++
	switch exp.Kind {
	case testbed.KindPower:
		s.Power++
	case testbed.KindInteraction:
		if automated {
			s.Automated++
		} else {
			s.Manual++
		}
	}
	s.Packets += int64(len(exp.Packets))
	s.Bytes += int64(exp.Bytes())
}

func (r *Runner) labs() []*testbed.Lab { return []*testbed.Lab{r.US, r.UK} }

func (r *Runner) vpnModes() []bool {
	if r.Cfg.VPN {
		return []bool{false, true}
	}
	return []bool{false}
}

// controlledJob is one device leg of the controlled matrix.
type controlledJob struct {
	lab  *testbed.Lab
	vpn  bool
	slot *testbed.DeviceSlot
}

// runControlledJob synthesizes the full leg; the per-experiment RNG seeds
// depend only on (lab, device, label, rep), so results are identical to a
// serial run.
func (r *Runner) runControlledJob(j controlledJob) []*testbed.Experiment {
	var out []*testbed.Experiment
	clock := testbed.StudyEpoch
	for rep := 0; rep < r.Cfg.PowerReps; rep++ {
		exp := j.lab.RunPower(j.slot, j.vpn, clock, rep)
		clock = exp.End.Add(30 * time.Second)
		out = append(out, exp)
	}
	for ai := range j.slot.Inst.Profile.Activities {
		act := &j.slot.Inst.Profile.Activities[ai]
		for _, method := range act.Methods {
			reps, _ := r.repsFor(act, method)
			for rep := 0; rep < reps; rep++ {
				exp := j.lab.RunInteraction(j.slot, act, method, j.vpn, clock, rep)
				clock = exp.End.Add(15 * time.Second)
				out = append(out, exp)
			}
		}
	}
	return out
}

// synthesizeLeg runs numJobs synthesis jobs (device legs or study days)
// on a par.Ordered pool and hands every produced item to deliver in job
// order, so analyses see a deterministic stream regardless of
// parallelism, and at most 2×workers jobs are synthesized ahead of
// delivery. It is a free function because methods cannot take type
// parameters; the element type T is *testbed.Experiment for the
// controlled/idle legs and *UncontrolledResult for the user-study leg.
//
// When a metrics registry is attached, synthesizeLeg reports per-job
// synthesis latency (<stage>_leg_seconds), live queue depth
// (<stage>_queue_depth), throughput (<stage>_experiments_per_sec) and
// worker utilization — the share of worker wall time spent synthesizing
// (<stage>_worker_utilization).
func synthesizeLeg[T any](r *Runner, stage string, numJobs int, run func(int) []T, deliver func(T)) {
	workers := min(par.Workers(r.Cfg.Workers), numJobs)
	var (
		legHist = r.metrics.Histogram(stage+"_leg_seconds", obs.DurationBuckets)
		queue   = r.metrics.Gauge(stage + "_queue_depth")
		busyNS  atomic.Int64
		start   time.Time
	)
	if r.metrics != nil {
		start = time.Now()
		r.metrics.SetLabel("stage", stage)
		queue.Set(float64(numJobs))
		r.metrics.Gauge(stage + "_workers").Set(float64(workers))
	}

	count := 0
	// A leg never stops early, so Ordered's error is always nil.
	_ = par.Ordered(context.Background(), workers, func(submit func(func() []T) bool) {
		for i := 0; i < numJobs; i++ {
			submit(func() []T {
				t0 := time.Now()
				out := run(i)
				d := time.Since(t0)
				busyNS.Add(int64(d))
				legHist.ObserveDuration(d)
				queue.Add(-1)
				return out
			})
		}
	}, func(items []T) error {
		for _, item := range items {
			count++
			deliver(item)
		}
		return nil
	})
	if r.metrics != nil {
		r.metrics.Counter(stage + "_experiments_total").Add(int64(count))
		if wall := time.Since(start).Seconds(); wall > 0 {
			r.metrics.Gauge(stage + "_experiments_per_sec").Set(float64(count) / wall)
			if workers > 0 {
				r.metrics.Gauge(stage + "_worker_utilization").Set(
					float64(busyNS.Load()) / 1e9 / (wall * float64(workers)))
			}
		}
	}
}

// RunControlled executes the full controlled matrix (power + interaction)
// and streams each experiment to visit. Synthesis runs on Cfg.Workers
// goroutines; delivery order (and therefore every analysis result) is
// independent of the parallelism.
func (r *Runner) RunControlled(visit Visitor) Stats {
	var jobs []controlledJob
	for _, lab := range r.labs() {
		for _, vpn := range r.vpnModes() {
			for _, slot := range lab.Slots() {
				jobs = append(jobs, controlledJob{lab, vpn, slot})
			}
		}
	}
	var stats Stats
	expTotal := r.metrics.Counter("experiments_total")
	synthesizeLeg(r, "controlled", len(jobs),
		func(i int) []*testbed.Experiment { return r.runControlledJob(jobs[i]) },
		func(exp *testbed.Experiment) {
			automated := false
			if exp.Kind == testbed.KindInteraction {
				automated = ActivityAutomated(exp.Device, exp.Activity)
			}
			stats.absorb(exp, automated)
			expTotal.Inc()
			visit(exp)
		})
	return stats
}

// ActivityAutomated reports whether a controlled interaction with the
// given label was triggered by automation (§3.3): physical ("local_*")
// interactions and Manual-flagged activities are performed by hand,
// everything else by the testbed's app/voice automation. The capture
// ingester uses this to reconstruct a campaign's automated/manual split
// from labelled experiment windows alone.
func ActivityAutomated(inst *devices.Instance, label string) bool {
	if strings.HasPrefix(label, "local_") {
		return false
	}
	for _, act := range inst.Profile.Activities {
		if strings.HasSuffix(label, "_"+act.Name) || label == act.Name {
			if act.Manual {
				return false
			}
		}
	}
	return true
}

// repsFor applies §3.3's repetition policy: physical/manual interactions
// repeat ManualReps times, automated ones AutomatedReps times.
func (r *Runner) repsFor(act *devices.Activity, method devices.Method) (int, bool) {
	if act.Manual || method == devices.MethodLocal {
		return r.Cfg.ManualReps, false
	}
	return r.Cfg.AutomatedReps, true
}

// RunIdle executes the idle captures (overnight windows, §3.3), one
// experiment per device per one-hour window. Like RunControlled it
// synthesizes device legs in parallel and delivers them in order.
func (r *Runner) RunIdle(visit Visitor) Stats {
	type idleJob struct {
		lab   *testbed.Lab
		vpn   bool
		slot  *testbed.DeviceSlot
		hours float64
	}
	var jobs []idleJob
	for _, lab := range r.labs() {
		for _, vpn := range r.vpnModes() {
			hours, ok := r.Cfg.IdleHours[lab.Column(vpn)]
			if !ok || hours <= 0 {
				continue
			}
			for _, slot := range lab.Slots() {
				jobs = append(jobs, idleJob{lab, vpn, slot, hours})
			}
		}
	}
	runJob := func(j idleJob) []*testbed.Experiment {
		var out []*testbed.Experiment
		remaining := time.Duration(j.hours * float64(time.Hour))
		clock := testbed.StudyEpoch.Add(22 * time.Hour) // overnight
		rep := 0
		for remaining > 0 {
			window := time.Hour
			if remaining < window {
				window = remaining
			}
			out = append(out, j.lab.RunIdle(j.slot, j.vpn, clock, window, rep))
			clock = clock.Add(window)
			remaining -= window
			rep++
		}
		return out
	}

	var stats Stats
	expTotal := r.metrics.Counter("experiments_total")
	synthesizeLeg(r, "idle", len(jobs),
		func(i int) []*testbed.Experiment { return runJob(jobs[i]) },
		func(exp *testbed.Experiment) {
			stats.absorb(exp, false)
			expTotal.Inc()
			visit(exp)
		})
	return stats
}

// String renders stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("%d experiments (%d automated, %d manual, %d power), %d packets, %.1f MB",
		s.Experiments, s.Automated, s.Manual, s.Power, s.Packets, float64(s.Bytes)/1e6)
}

// rngFor derives a stream-local RNG.
func rngFor(seed int64, tags ...string) *rand.Rand {
	h := seed
	for _, t := range tags {
		for i := 0; i < len(t); i++ {
			h = h*1099511628211 + int64(t[i])
		}
	}
	return rand.New(rand.NewSource(h))
}
