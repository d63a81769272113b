package experiments

import (
	"testing"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/devices"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// tinyConfig keeps unit tests fast.
func tinyConfig() Config {
	return Config{
		Seed:          1,
		AutomatedReps: 2,
		ManualReps:    1,
		PowerReps:     1,
		IdleHours:     map[string]float64{"US": 1, "GB": 1},
		VPN:           false,
	}
}

func TestRunControlledVisitsEveryDevice(t *testing.T) {
	r, err := NewRunner(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	kinds := map[testbed.ExperimentKind]int{}
	stats := r.RunControlled(func(exp *testbed.Experiment) {
		seen[exp.Device.ID()] = true
		kinds[exp.Kind]++
		if len(exp.Packets) == 0 {
			t.Errorf("%s/%s: empty experiment", exp.Device.ID(), exp.Activity)
		}
		if exp.Column != exp.Lab && !exp.VPN {
			t.Errorf("column %q for lab %q", exp.Column, exp.Lab)
		}
	})
	if len(seen) != 81 {
		t.Errorf("devices visited = %d, want 81", len(seen))
	}
	if kinds[testbed.KindPower] != 81 { // 1 power rep × 81 instances
		t.Errorf("power experiments = %d", kinds[testbed.KindPower])
	}
	if stats.Experiments != kinds[testbed.KindPower]+kinds[testbed.KindInteraction] {
		t.Errorf("stats mismatch: %+v vs %v", stats, kinds)
	}
	if stats.Packets == 0 || stats.Bytes == 0 {
		t.Error("no traffic accounted")
	}
}

func TestRepetitionPolicy(t *testing.T) {
	cfg := tinyConfig()
	cfg.AutomatedReps = 3
	cfg.ManualReps = 2
	r, _ := NewRunner(cfg)
	counts := map[string]int{}
	r.RunControlled(func(exp *testbed.Experiment) {
		if exp.Kind != testbed.KindInteraction {
			return
		}
		counts[exp.Device.ID()+"|"+exp.Activity]++
	})
	// Echo Dot voice is a local (manual) interaction: ManualReps.
	if got := counts["us/echo-dot|local_voice"]; got != 2 {
		t.Errorf("local_voice reps = %d, want 2", got)
	}
	// TP-Link Plug android_lan_on is automated: AutomatedReps.
	if got := counts["us/tp-link-plug|android_lan_on"]; got != 3 {
		t.Errorf("android_lan_on reps = %d, want 3", got)
	}
}

func TestVPNDoubling(t *testing.T) {
	cfg := tinyConfig()
	cfg.VPN = true
	r, _ := NewRunner(cfg)
	cols := map[string]int{}
	r.RunControlled(func(exp *testbed.Experiment) { cols[exp.Column]++ })
	for _, want := range []string{"US", "GB", "US->GB", "GB->US"} {
		if cols[want] == 0 {
			t.Errorf("no experiments in column %q (have %v)", want, cols)
		}
	}
	if cols["US"] != cols["US->GB"] {
		t.Errorf("VPN leg should mirror direct leg: %v", cols)
	}
}

func TestRunIdleWindows(t *testing.T) {
	r, _ := NewRunner(tinyConfig())
	perDevice := map[string]time.Duration{}
	r.RunIdle(func(exp *testbed.Experiment) {
		if exp.Kind != testbed.KindIdle {
			t.Errorf("kind = %v", exp.Kind)
		}
		perDevice[exp.Device.ID()] += exp.End.Sub(exp.Start)
	})
	if got := perDevice["us/zmodo-doorbell"]; got != time.Hour {
		t.Errorf("US idle = %v, want 1h", got)
	}
	if got := perDevice["gb/wansview-cam"]; got != time.Hour {
		t.Errorf("UK idle = %v, want 1h", got)
	}
}

func TestPaperScaleExperimentCount(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale count check skipped in -short")
	}
	// Count (without running) the experiments PaperConfig would do:
	// verify the magnitude matches the paper's 34,586.
	cfg := PaperConfig()
	r, _ := NewRunner(cfg)
	total := 0
	for _, lab := range []*testbed.Lab{r.US, r.UK} {
		for range []bool{false, true} {
			for _, slot := range lab.Slots() {
				total += cfg.PowerReps
				for _, act := range slot.Inst.Profile.Activities {
					for _, m := range act.Methods {
						if act.Manual || m == devices.MethodLocal {
							total += cfg.ManualReps
						} else {
							total += cfg.AutomatedReps
						}
					}
				}
			}
		}
	}
	if total < 20000 || total > 60000 {
		t.Errorf("paper-scale controlled experiments = %d, want same order as 34,586", total)
	}
	t.Logf("paper-scale controlled experiment count: %d", total)
}

func TestUncontrolledStudy(t *testing.T) {
	cfg := tinyConfig()
	cfg.UncontrolledDays = 2
	r, _ := NewRunner(cfg)
	devicesSeen := map[string]bool{}
	intended, unintended := 0, 0
	r.RunUncontrolled(func(res *UncontrolledResult) {
		devicesSeen[res.Experiment.Device.Profile.Name] = true
		if res.Experiment.Kind != testbed.KindUncontrolled {
			t.Errorf("kind = %v", res.Experiment.Kind)
		}
		for _, gt := range res.Truth {
			if gt.Intended {
				intended++
			} else {
				unintended++
			}
		}
		for i := 1; i < len(res.Experiment.Packets); i++ {
			if res.Experiment.Packets[i].Meta.Timestamp.Before(res.Experiment.Packets[i-1].Meta.Timestamp) {
				t.Fatal("uncontrolled packets not time-ordered")
			}
		}
	})
	// The always-on devices must appear.
	for _, want := range []string{"Ring Doorbell", "ZModo Doorbell"} {
		if !devicesSeen[want] {
			t.Errorf("%s absent from uncontrolled study", want)
		}
	}
	if unintended == 0 {
		t.Error("no unintended recordings — passive triggers missing")
	}
	if intended == 0 {
		t.Error("no intended interactions")
	}
	// Passive recordings dominate (6 sensors per access vs 1-2 uses).
	if unintended < intended {
		t.Errorf("unintended (%d) should exceed intended (%d)", unintended, intended)
	}
}

// TestParallelismDeterministic: the visitor must see the identical
// experiment stream regardless of worker count.
func TestParallelismDeterministic(t *testing.T) {
	run := func(workers int) []string {
		cfg := tinyConfig()
		cfg.Workers = workers
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var seq []string
		r.RunControlled(func(exp *testbed.Experiment) {
			seq = append(seq, exp.Device.ID()+"|"+exp.Activity+"|"+
				time.Duration(len(exp.Packets)).String())
		})
		return seq
	}
	serial := run(1)
	parallel := run(8)
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("stream diverges at %d: %q vs %q", i, serial[i], parallel[i])
		}
	}
}

// TestStatsSameAcrossWorkerCounts: the automated/manual accounting must
// not depend on parallelism either.
func TestStatsSameAcrossWorkerCounts(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = 1
	r1, _ := NewRunner(cfg)
	s1 := r1.RunControlled(func(*testbed.Experiment) {})
	cfg.Workers = 6
	r2, _ := NewRunner(cfg)
	s2 := r2.RunControlled(func(*testbed.Experiment) {})
	if s1 != s2 {
		t.Fatalf("stats differ:\n  1 worker: %+v\n  6 workers: %+v", s1, s2)
	}
	if s1.Automated == 0 || s1.Manual == 0 || s1.Power == 0 {
		t.Errorf("accounting empty: %+v", s1)
	}
}

// TestSynthesisLegMetrics checks the metrics the controlled leg's
// synthesis pool records: one leg_seconds observation per (lab, vpn,
// slot) job, an experiments_total equal to the leg's Stats, a queue that
// drains to zero and a worker utilization in (0, 1].
func TestSynthesisLegMetrics(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = 3
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r.SetObs(reg)
	stats := r.RunControlled(func(*testbed.Experiment) {})

	jobs := 0
	for _, lab := range r.labs() {
		jobs += len(r.vpnModes()) * len(lab.Slots())
	}
	snap := reg.Snapshot()
	if got := snap.Histograms["controlled_leg_seconds"].Count; got != int64(jobs) {
		t.Errorf("controlled_leg_seconds count = %d, want %d jobs", got, jobs)
	}
	if got := snap.Counters["controlled_experiments_total"]; got != int64(stats.Experiments) {
		t.Errorf("controlled_experiments_total = %d, want Stats.Experiments %d", got, stats.Experiments)
	}
	if depth, ok := snap.Gauges["controlled_queue_depth"]; !ok || depth != 0 {
		t.Errorf("controlled_queue_depth = %v (recorded %v), want 0", depth, ok)
	}
	if u := snap.Gauges["controlled_worker_utilization"]; u <= 0 || u > 1 {
		t.Errorf("controlled_worker_utilization = %v, want in (0, 1]", u)
	}
}
