package experiments

import (
	"time"

	"github.com/neu-sns/intl-iot-go/internal/devices"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// The uncontrolled experiments simulate the §3.3 IRB-approved user study:
// 36 participants use the US lab as a studio apartment for six months.
// Each lab access passively triggers the always-on sensing devices
// (cameras, doorbells, motion sensors) and actively exercises one or two
// appliance/assistant devices — the §3.3 "fridge then microwave" pattern.

// GroundTruth is what actually happened during an uncontrolled window,
// used in §7.3 to decide whether a detection was expected.
type GroundTruth struct {
	Device string
	// Activity is the generator-level activity name.
	Activity string
	// Intended reports whether a participant deliberately used the
	// device; passive camera/doorbell recordings are not intended.
	Intended bool
	Time     time.Time
}

// UncontrolledResult is the output of one simulated study day for one
// device.
type UncontrolledResult struct {
	Experiment *testbed.Experiment
	Truth      []GroundTruth
}

// passiveDevices are always-on devices triggered by mere presence.
var passiveDevices = []struct{ name, activity string }{
	{"Ring Doorbell", "move"},
	{"ZModo Doorbell", "move"},
	{"Amazon Cloudcam", "move"},
	{"Wansview Cam", "move"},
	{"Blink Cam", "move"},
	{"D-Link Mov Sensor", "move"},
}

// activeChoices are the devices participants actively use, weighted by
// the §3.3 description (fridge, laundry, microwave most common; Alexa
// frequent).
var activeChoices = []struct {
	name, activity string
	method         devices.Method
	weight         int
}{
	{"Samsung Fridge", "viewinside", devices.MethodLocal, 5},
	{"Samsung Washer", "start", devices.MethodLocal, 4},
	{"Samsung Dryer", "start", devices.MethodLocal, 4},
	{"GE Microwave", "start", devices.MethodLocal, 5},
	{"Echo Dot", "voice", devices.MethodLocal, 4},
	{"Echo Spot", "voice", devices.MethodLocal, 3},
	{"Samsung TV", "menu", devices.MethodLocal, 2},
	{"TP-Link Bulb", "on", devices.MethodLAN, 2},
	{"Behmor Brewer", "start", devices.MethodLocal, 1},
}

// planned is one scheduled device trigger within a study day.
type planned struct {
	device, activity string
	method           devices.Method
	intended         bool
	at               time.Time
}

// planDay draws one day's schedule from the campaign RNG. All randomness
// in the uncontrolled study lives here; synthesis from a plan is pure
// (per-experiment RNGs derive from (device, label, rep) tags), which is
// what lets the days fan out across workers after serial planning.
func planDay(rng interface{ Intn(int) int }, dayStart time.Time) []planned {
	accesses := 20 + rng.Intn(11)
	var plan []planned
	for a := 0; a < accesses; a++ {
		at := dayStart.Add(time.Duration(8+rng.Intn(14))*time.Hour +
			time.Duration(rng.Intn(3600))*time.Second)
		// Passive triggers: every always-on sensor sees the person.
		for _, pd := range passiveDevices {
			plan = append(plan, planned{pd.name, pd.activity, devices.MethodLocal, false, at})
		}
		// One or two active uses.
		uses := 1 + rng.Intn(2)
		for u := 0; u < uses; u++ {
			c := weightedChoice(rng, activeChoices)
			plan = append(plan, planned{c.name, c.activity, c.method, true,
				at.Add(time.Duration(1+rng.Intn(5)) * time.Minute)})
		}
	}
	// Accidental Alexa activations: conversation fragments that sound
	// like the wake word, streamed to Amazon before rejection.
	for i := 0; i < 2+rng.Intn(4); i++ {
		at := dayStart.Add(time.Duration(9+rng.Intn(12)) * time.Hour)
		plan = append(plan, planned{"Echo Dot", "voice", devices.MethodLocal, false, at})
	}
	return plan
}

// RunUncontrolled simulates Cfg.UncontrolledDays of the US user study and
// streams one result per (device, day). Participants trigger 20–30 lab
// accesses per day; Alexa devices also produce accidental activations
// (§7.3's "I like Star Trek" problem).
//
// Planning is serial — every RNG draw happens in day order, exactly as
// the historical single-threaded loop drew them — and the packet
// synthesis for each day then fans out across Cfg.Workers like the
// controlled and idle legs. Delivery order is per-day, per-slot, so
// results are byte-identical for any worker count.
func (r *Runner) RunUncontrolled(visit func(*UncontrolledResult)) Stats {
	var stats Stats
	lab := r.US
	rng := rngFor(r.Cfg.Seed, "uncontrolled")
	expTotal := r.metrics.Counter("experiments_total")

	// The study ran September 2018 – February 2019.
	studyStart := time.Date(2018, 9, 1, 0, 0, 0, 0, time.UTC)

	days := r.Cfg.UncontrolledDays
	plans := make([][]planned, days)
	for day := 0; day < days; day++ {
		plans[day] = planDay(rng, studyStart.AddDate(0, 0, day))
	}

	runDay := func(day int) []*UncontrolledResult {
		dayStart := studyStart.AddDate(0, 0, day)
		// Group per device so each result is one device-day capture.
		byDevice := map[string][]planned{}
		for _, p := range plans[day] {
			byDevice[p.device] = append(byDevice[p.device], p)
		}
		var out []*UncontrolledResult
		for _, slot := range lab.Slots() {
			events, ok := byDevice[slot.Inst.Profile.Name]
			if !ok {
				continue
			}
			res := &UncontrolledResult{
				Experiment: &testbed.Experiment{
					Lab: lab.Name, Column: lab.Name,
					Device: slot.Inst, DeviceIP: slot.IP,
					Kind:  testbed.KindUncontrolled,
					Start: dayStart, End: dayStart.Add(24 * time.Hour),
				},
			}
			for i, ev := range events {
				act, ok := slot.Inst.Profile.Activity(ev.activity)
				if !ok {
					continue
				}
				exp := lab.RunInteraction(slot, act, ev.method, false, ev.at, day*1000+i)
				res.Experiment.Packets = append(res.Experiment.Packets, exp.Packets...)
				res.Experiment.IdleEvents = append(res.Experiment.IdleEvents, devices.IdleEvent{
					Activity: ev.activity, Method: ev.method, Start: ev.at, End: exp.End,
				})
				res.Truth = append(res.Truth, GroundTruth{
					Device: slot.Inst.Profile.Name, Activity: ev.activity,
					Intended: ev.intended, Time: ev.at,
				})
			}
			sortExperiment(res.Experiment)
			out = append(out, res)
		}
		return out
	}

	synthesizeLeg(r, "uncontrolled", days, runDay,
		func(res *UncontrolledResult) {
			stats.Experiments++
			stats.Packets += int64(len(res.Experiment.Packets))
			stats.Bytes += int64(res.Experiment.Bytes())
			expTotal.Inc()
			visit(res)
		})
	return stats
}

func sortExperiment(exp *testbed.Experiment) {
	if len(exp.Packets) > 1 {
		sortPackets(exp.Packets)
	}
}

func weightedChoice(rng interface{ Intn(int) int }, choices []struct {
	name, activity string
	method         devices.Method
	weight         int
}) struct {
	name, activity string
	method         devices.Method
	weight         int
} {
	total := 0
	for _, c := range choices {
		total += c.weight
	}
	n := rng.Intn(total)
	for _, c := range choices {
		n -= c.weight
		if n < 0 {
			return c
		}
	}
	return choices[len(choices)-1]
}

func sortPackets(pkts []*netx.Packet) { netx.SortPacketsByTime(pkts) }
