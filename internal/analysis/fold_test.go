package analysis

import (
	"reflect"
	"testing"

	"github.com/neu-sns/intl-iot-go/internal/cloud"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/ml"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/orgdb"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// pipelineFingerprint freezes everything report tables read from a run:
// destination counters, encryption rows (including the order-sensitive
// Welch-test significance flags), PII findings in insertion order,
// inference and identification results, and the idle detections. Two
// fingerprints are reflect.DeepEqual only if every table would render
// byte-identically.
type pipelineFingerprint struct {
	ExpParty   map[string]int
	Orgs       []OrgRow
	Bands      []VolumeBand
	NFP        [2]int
	EncRows    []DeviceRow
	Findings   []PIIFinding
	Inference  []InferenceResult
	Identify   []IdentifyResult
	Detections []Detection
	Counts     map[DetectKey]int
	Hours      map[string]float64
	Stats      [2]experiments.Stats
}

func fingerprint(p *Pipeline, cv ml.CVConfig) pipelineFingerprint {
	fp := pipelineFingerprint{
		ExpParty:   map[string]int{},
		Orgs:       p.Dest.TopOrganizations(0),
		Bands:      p.Dest.TrafficBands(0),
		EncRows:    p.Enc.DeviceRows(nil),
		Findings:   p.Content.Findings(),
		Inference:  p.Inference,
		Identify:   p.Identify.Evaluate(cv),
		Detections: p.IdleHits.Detections,
		Counts:     p.IdleHits.Counts,
		Hours:      p.IdleHits.Hours,
		Stats:      [2]experiments.Stats{p.Stats, p.IdleStats},
	}
	fp.NFP[0], fp.NFP[1] = p.Dest.DevicesWithNonFirstParty()
	for _, typ := range append(ExpTypesForTable2, ExpOther) {
		for _, col := range Columns {
			for _, party := range []orgdb.PartyType{orgdb.PartyFirst, orgdb.PartySupport, orgdb.PartyThird} {
				k := string(typ) + "|" + col + "|" + party.String()
				fp.ExpParty[k] = p.Dest.CountByExpParty(typ, party, col, false)
				fp.ExpParty[k+"|common"] = p.Dest.CountByExpParty(typ, party, col, true)
			}
		}
	}
	return fp
}

// replaySource delivers a campaign synthesized once. Every delivery
// hands out a fresh copy of each experiment and of its Packets slice,
// because degrading rewrites exp.Packets; the packets themselves are
// never written, so the copies share them.
type replaySource struct {
	internet    *cloud.Internet
	ctl, idle   []*testbed.Experiment
	ctlS, idleS experiments.Stats
}

// newReplaySource synthesizes r's controlled and idle legs once.
func newReplaySource(r *experiments.Runner) *replaySource {
	s := &replaySource{internet: r.Internet()}
	s.ctlS = r.RunControlled(func(exp *testbed.Experiment) { s.ctl = append(s.ctl, exp) })
	s.idleS = r.RunIdle(func(exp *testbed.Experiment) { s.idle = append(s.idle, exp) })
	return s
}

func (s *replaySource) Internet() *cloud.Internet { return s.internet }
func (s *replaySource) SetObs(*obs.Registry)      {}

func (s *replaySource) RunControlled(visit experiments.Visitor) experiments.Stats {
	replay(s.ctl, visit)
	return s.ctlS
}

func (s *replaySource) RunIdle(visit experiments.Visitor) experiments.Stats {
	replay(s.idle, visit)
	return s.idleS
}

func replay(exps []*testbed.Experiment, visit experiments.Visitor) {
	for _, exp := range exps {
		c := *exp
		c.Packets = append([]*netx.Packet(nil), exp.Packets...)
		visit(&c)
	}
}

// serialReference is the reference Pipeline.Run must match: every
// experiment visits the public collector methods on the delivering
// goroutine, in delivery order — the controlled leg, then training, then
// the idle leg.
func serialReference(src Source, cfg InferConfig) *Pipeline {
	p := NewPipeline(src)
	cfg.Workers = 1
	degrade := func(exp *testbed.Experiment) {
		pkts, _ := DedupRetransmissions(exp.Packets)
		exp.Packets, _ = FilterCoverFlows(pkts)
	}
	p.Stats = src.RunControlled(func(exp *testbed.Experiment) {
		degrade(exp)
		p.Dest.Visit(exp)
		p.Enc.Visit(exp)
		p.Content.Visit(exp)
		p.Identify.Visit(exp)
	})
	p.Inference = p.Content.Infer(cfg)
	p.Detector = NewDetector(p.Content, p.Inference, cfg)
	p.IdleHits = NewDetectResult()
	p.IdleStats = src.RunIdle(func(exp *testbed.Experiment) {
		degrade(exp)
		p.Dest.Visit(exp)
		p.Enc.Visit(exp)
		p.Detector.VisitIdle(exp, p.IdleHits)
	})
	return p
}

// The delivery guarantee end to end inside the analysis layer: folding a
// campaign on N workers produces bit-identical collector state, models
// and detections to visiting it serially — including float-valued
// results, whose accumulation order the fold merge preserves or
// canonicalizes.
func TestFoldPipelineMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns skipped in -short")
	}
	r, err := experiments.NewRunner(experiments.Config{
		Seed:          1,
		AutomatedReps: 6,
		ManualReps:    2,
		PowerReps:     2,
		IdleHours:     map[string]float64{"US": 2, "GB": 1},
		VPN:           true,
		Workers:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := newReplaySource(r)
	icfg := InferConfig{CV: ml.CVConfig{
		TrainFrac: 0.7, Repeats: 3, Seed: 42,
		Forest: ml.ForestConfig{NumTrees: 8},
	}}

	serial := fingerprint(serialReference(src, icfg), icfg.CV)
	if len(serial.Findings) == 0 || len(serial.Inference) == 0 || len(serial.Detections) == 0 {
		t.Fatal("campaign produced no findings/inference/detections; fingerprint is vacuous")
	}
	for _, workers := range []int{2, 3, 5} {
		p := NewPipeline(src)
		p.Workers = workers
		// Attach a registry so the fold units' timing paths run under
		// -race too; instrumentation must change no output.
		p.SetObs(obs.NewRegistry())
		p.Run(icfg)
		got := fingerprint(p, icfg.CV)
		if !reflect.DeepEqual(got, serial) {
			for i, name := range []string{"dest", "orgs", "bands", "nfp", "enc", "findings", "inference", "identify", "detections", "counts", "hours", "stats"} {
				a := reflect.ValueOf(got).Field(i).Interface()
				b := reflect.ValueOf(serial).Field(i).Interface()
				if !reflect.DeepEqual(a, b) {
					t.Errorf("workers=%d: %s differs from serial run", workers, name)
				}
			}
		}
	}
}
