package main

import (
	"fmt"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/analysis"
	"github.com/neu-sns/intl-iot-go/internal/cloud"
	"github.com/neu-sns/intl-iot-go/internal/devices"
	"github.com/neu-sns/intl-iot-go/internal/faults"
	"github.com/neu-sns/intl-iot-go/internal/fleet"
	"github.com/neu-sns/intl-iot-go/internal/reshape"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// The fleet runs its own synthesis and collector loop per home, inside
// fleet.Run. homeReplay re-creates a planned home's experiment stream
// from public parts — fleet.Plan's specs, testbed.NewHomeLab, the
// home's fault engine and reshape defense — in the per-home order the
// fleet documents: power, up to two interactions, then an idle window
// per device. The fleet workload uses it to size the fleet by wire
// bytes, and the traced run to time synthesis and collectors on the
// fleet's own traffic; the traced run checks the replay's totals
// against fleet.Run's aggregate.
const (
	homeActivitiesPerDevice = 2
	homeIdleWindow          = 5 * time.Minute
	homeExperimentGap       = 30 * time.Second
)

type homeBackend struct {
	internet *cloud.Internet
	eng      *faults.Engine
}

type homeReplay struct {
	backends map[string]homeBackend
	// synth is the time spent in the labs' Run* calls.
	synth time.Duration
}

// newHomeReplay builds one simulated Internet and fault engine per
// fault profile, as fleet.Run does.
func newHomeReplay(specs []fleet.HomeSpec, seed int64) (*homeReplay, error) {
	r := &homeReplay{backends: map[string]homeBackend{}}
	for _, s := range specs {
		if _, ok := r.backends[s.FaultProfile]; ok {
			continue
		}
		prof, err := faults.ByName(s.FaultProfile)
		if err != nil {
			return nil, err
		}
		internet := cloud.New()
		eng := faults.New(prof, seed)
		if eng.Enabled() {
			internet.SetFaults(eng)
			internet.SetSeed(seed)
		}
		r.backends[s.FaultProfile] = homeBackend{internet, eng}
	}
	return r, nil
}

// home synthesizes one planned home, handing each experiment to visit
// after the home's defense has transformed it. impaired reports whether
// the home rides a fault profile, on which the fleet dedups
// retransmissions before analysis.
func (r *homeReplay) home(spec fleet.HomeSpec, visit func(exp *testbed.Experiment, impaired bool)) error {
	be := r.backends[spec.FaultProfile]
	insts := make([]*devices.Instance, 0, len(spec.Devices))
	for _, name := range spec.Devices {
		prof, ok := devices.ByName(name)
		if !ok {
			return fmt.Errorf("home %d: unknown device %q", spec.Index, name)
		}
		insts = append(insts, devices.NewInstance(prof, spec.Region))
	}
	lab, err := testbed.NewHomeLab(spec.Region, be.internet, spec.Seed, insts, spec.Subnet)
	if err != nil {
		return err
	}
	lab.SetFaults(be.eng)
	var defense *reshape.Engine
	if spec.ReshapeStack != "" {
		defense, err = reshape.New(reshape.Config{Stack: []string{spec.ReshapeStack}, Seed: spec.Seed, Budget: spec.ReshapeBudget})
		if err != nil {
			return err
		}
	}
	at := testbed.StudyEpoch.Add(spec.ClockOffset)
	run := func(f func() *testbed.Experiment) {
		t0 := time.Now()
		exp := f()
		r.synth += time.Since(t0)
		at = exp.End.Add(homeExperimentGap)
		if defense.Enabled() {
			defense.Transform(exp)
		}
		visit(exp, be.eng.Enabled())
	}
	for _, slot := range lab.Slots() {
		run(func() *testbed.Experiment { return lab.RunPower(slot, false, at, 0) })
		ran := 0
		for i := range slot.Inst.Profile.Activities {
			if ran == homeActivitiesPerDevice {
				break
			}
			act := &slot.Inst.Profile.Activities[i]
			if len(act.Methods) == 0 {
				continue
			}
			run(func() *testbed.Experiment { return lab.RunInteraction(slot, act, act.Methods[0], false, at, 0) })
			ran++
		}
		run(func() *testbed.Experiment { return lab.RunIdle(slot, false, at, homeIdleWindow, 0) })
	}
	return nil
}

// fleetDedup is the fleet's normalization: retransmission dedup on
// impaired homes only.
func fleetDedup(exp *testbed.Experiment, impaired bool) {
	if impaired {
		exp.Packets, _ = analysis.DedupRetransmissions(exp.Packets)
	}
}

// homesForWork returns the number of leading homes of specs whose
// replay — synthesis, defense, dedup and the dest, enc and content
// collectors, the work of the fleet's per-home loop — allocates closest
// to target bytes. Allocation is a deterministic proxy for the work a
// home costs, which varies several-fold with its devices, faults and
// defense.
func homesForWork(specs []fleet.HomeSpec, seed, target int64) (int, error) {
	r, err := newHomeReplay(specs, seed)
	if err != nil {
		return 0, err
	}
	var work int64
	for i, spec := range specs {
		before := work
		c := newCollectorProbe(r.backends[spec.FaultProfile].internet)
		a0, _ := heapAllocs()
		err := r.home(spec, func(exp *testbed.Experiment, impaired bool) {
			fleetDedup(exp, impaired)
			c.dest.Visit(exp)
			c.enc.Visit(exp)
			c.content.Visit(exp)
		})
		if err != nil {
			return 0, err
		}
		a1, _ := heapAllocs()
		work += int64(a1 - a0)
		if work >= target {
			if i > 0 && target-before < work-target {
				return i, nil
			}
			return i + 1, nil
		}
	}
	return 0, fmt.Errorf("%d planned homes allocate %d bytes, short of %d", len(specs), work, target)
}

// traceHomes times synthesis and the collectors over the fleet's homes.
func traceHomes(t *tracer, cfg fleet.Config, agg *fleet.Aggregate) error {
	specs, err := fleet.Plan(cfg)
	if err != nil {
		return err
	}
	r, err := newHomeReplay(specs, cfg.Seed)
	if err != nil {
		return err
	}
	c := newCollectorProbe(cloud.New())
	var nExp, nPkts, wire int64
	var idle []*testbed.Experiment
	for _, spec := range specs {
		err := r.home(spec, func(exp *testbed.Experiment, impaired bool) {
			c.degrade = func(exp *testbed.Experiment) { fleetDedup(exp, impaired) }
			if exp.Kind == testbed.KindIdle {
				// The fleet's loop feeds idle windows to the content
				// collector too. Detection needs trained models, so
				// idle windows are detected after the last home.
				c.call("degrade", func() { c.degrade(exp) })
				c.call("dest", func() { c.dest.Visit(exp) })
				c.call("enc", func() { c.enc.Visit(exp) })
				c.call("content", func() { c.content.Visit(exp) })
				idle = append(idle, exp)
			} else {
				c.controlled(exp)
			}
			nExp++
			nPkts += int64(len(exp.Packets))
			wire += int64(exp.Bytes())
		})
		if err != nil {
			return err
		}
	}
	if nExp != int64(agg.Experiments) || nPkts != int64(agg.Packets) || wire != agg.WireBytes {
		return fmt.Errorf("fleet replay diverged from fleet.Run: experiments %d/%d packets %d/%d wire bytes %d/%d",
			nExp, agg.Experiments, nPkts, agg.Packets, wire, agg.WireBytes)
	}

	t.set("experiments.synth_s", r.synth.Seconds(), "s")
	t.set("experiments.count", float64(nExp), "count")
	t.set("experiments.packets", float64(nPkts), "count")
	t.own(r.synth.Seconds())
	c.train(t, cfg.Workers, false)
	for _, exp := range idle {
		c.call("detect", func() { c.detector.VisitIdle(exp, c.hits) })
	}
	// fleet.Run runs the dedup step and the dest, enc and content
	// collectors; identification and detection are timed over the same
	// homes but are not on its path.
	c.report(t, map[string]bool{"degrade": true, "dest": true, "enc": true, "content": true})
	return nil
}
