package analysis

import (
	"sort"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/features"
	"github.com/neu-sns/intl-iot-go/internal/ml"
	"github.com/neu-sns/intl-iot-go/internal/par"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// Detector applies the §7.1 methodology: train per-device activity
// models on labelled data, keep only highly accurate ones (F1 > 0.9
// under cross-validation), segment unlabelled traffic into traffic units
// (> 2 s gaps), and classify each sufficiently large unit.
type Detector struct {
	// FeatureSet must match the models' training features.
	FeatureSet features.Set

	models map[instColKey]*deviceModel
}

const (
	// unitGap is the traffic-unit segmentation threshold.
	unitGap = features.DefaultUnitGap
	// minUnitPackets filters units too small to classify; heartbeat
	// flows (8–10 packets with TCP framing) and NTP blips fall below it,
	// while even the smallest real interaction spans several flows.
	minUnitPackets = 12
	// minVote is the forest vote share required to accept a prediction.
	minVote = 0.6
)

type deviceModel struct {
	forest *ml.Forest
	f1     float64
	// envelopes maps each class to the per-feature [min, max] range seen
	// in training, used to reject out-of-distribution traffic units
	// (background heartbeats do not belong to any trained class; without
	// this check a forest confidently mislabels them — the reason the
	// paper only identifies 21–69% of traffic units, §7.1).
	envelopes map[string][][2]float64
}

// envelopeMargin widens training ranges to tolerate sampling noise.
const envelopeMargin = 0.35

// envelopeMinFrac is the fraction of features that must fall inside the
// predicted class's envelope for a detection to count.
const envelopeMinFrac = 0.85

func buildEnvelopes(ds *ml.Dataset) map[string][][2]float64 {
	env := make(map[string][][2]float64)
	for i, row := range ds.Features {
		label := ds.Labels[i]
		e := env[label]
		if e == nil {
			e = make([][2]float64, len(row))
			for j, v := range row {
				e[j] = [2]float64{v, v}
			}
			env[label] = e
			continue
		}
		for j, v := range row {
			if v < e[j][0] {
				e[j][0] = v
			}
			if v > e[j][1] {
				e[j][1] = v
			}
		}
	}
	return env
}

// withinEnvelope reports whether x matches the class envelope closely
// enough to be a plausible member.
func (m *deviceModel) withinEnvelope(label string, x []float64) bool {
	e, ok := m.envelopes[label]
	if !ok || len(e) != len(x) {
		return false
	}
	inside := 0
	for j, v := range x {
		lo, hi := e[j][0], e[j][1]
		span := hi - lo
		margin := span*envelopeMargin + 1e-9
		if span == 0 {
			// Constant feature: allow proportional slack.
			margin = absF(lo)*envelopeMargin + 1e-9
		}
		if v >= lo-margin && v <= hi+margin {
			inside++
		}
	}
	return float64(inside) >= envelopeMinFrac*float64(len(x))
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// NewDetector trains detectors from a content collector's datasets using
// the given inference results to select high-accuracy models. Model
// training fans out across cfg.Workers goroutines; each model is a pure
// function of its dataset and the CV seed, so the detector is identical
// for any worker count.
func NewDetector(c *ContentCollector, results []InferenceResult, cfg InferConfig) *Detector {
	d := &Detector{
		FeatureSet: c.FeatureSet,
		models:     make(map[instColKey]*deviceModel),
	}
	type pick struct {
		r  InferenceResult
		ds *ml.Dataset
	}
	var picks []pick
	for _, r := range results {
		if r.DeviceF1 <= HighAccuracyThreshold {
			continue
		}
		ds := c.Dataset(r.DeviceID, r.Column)
		if ds == nil {
			continue
		}
		picks = append(picks, pick{r, ds})
	}
	models := make([]*deviceModel, len(picks))
	fcfg := cfg.CV.Forest
	fcfg.Seed = cfg.CV.Seed
	fcfg.Workers = 1 // the models already saturate the worker pool
	par.For(len(picks), par.Workers(cfg.Workers), func(i int) {
		models[i] = &deviceModel{
			forest:    ml.TrainForest(picks[i].ds, fcfg),
			f1:        picks[i].r.DeviceF1,
			envelopes: buildEnvelopes(picks[i].ds),
		}
	})
	for i, p := range picks {
		d.models[instColKey{p.r.DeviceID, p.r.Column}] = models[i]
	}
	return d
}

// HasModel reports whether a high-accuracy model exists for the device
// in a column.
func (d *Detector) HasModel(deviceID, column string) bool {
	_, ok := d.models[instColKey{deviceID, column}]
	return ok
}

// ModelCount is the number of deployed models.
func (d *Detector) ModelCount() int { return len(d.models) }

// Detection is one inferred activity instance in unlabelled traffic.
type Detection struct {
	DeviceID   string
	DeviceName string
	Column     string
	Activity   string // predicted label, e.g. "local_move"
	Start      time.Time
	End        time.Time
}

// unitStats tracks traffic-unit classification coverage (§7.1 reports
// that 21–69% of units were identified).
type unitStats struct {
	Total      int
	Classified int
}

// DetectResult aggregates detections over a set of experiments.
type DetectResult struct {
	Detections []Detection
	// Counts maps (device name, activity, column) to the number of
	// detected instances — Table 11's cells.
	Counts map[DetectKey]int
	// Units tracks per-column unit coverage.
	Units map[string]*unitStats
	// Hours is the wall-clock idle time analysed per column (Table 11's
	// first row): the maximum per-device accumulation, since devices are
	// captured in parallel.
	Hours map[string]float64
	// deviceHours accumulates per (column, device) to derive Hours.
	deviceHours map[string]map[string]float64
}

// DetectKey identifies a Table 11 cell.
type DetectKey struct {
	Device   string
	Activity string
	Column   string
}

// NewDetectResult returns an empty result.
func NewDetectResult() *DetectResult {
	return &DetectResult{
		Counts:      make(map[DetectKey]int),
		Units:       make(map[string]*unitStats),
		Hours:       make(map[string]float64),
		deviceHours: make(map[string]map[string]float64),
	}
}

// VisitIdle classifies one idle experiment's traffic.
func (d *Detector) VisitIdle(exp *testbed.Experiment, res *DetectResult) {
	if !d.HasModel(exp.Device.ID(), exp.Column) {
		return
	}
	ie := segmentIdle(exp, d.FeatureSet)
	d.classifyIdle(&ie, res)
}

// idleExp is one idle experiment reduced to what classification needs:
// identity, wall-clock extent, its classifiable traffic units already
// segmented and vectorized, and a count of the units too small to
// classify.
type idleExp struct {
	devID, devName, column string
	start, end             time.Time
	units                  []idleUnit
	small                  int
}

type idleUnit struct {
	start, end time.Time
	vec        []float64
}

// segmentIdle splits exp's packets into traffic units at unitGap,
// vectorizes every unit of at least minUnitPackets packets and counts
// the rest.
func segmentIdle(exp *testbed.Experiment, fs features.Set) idleExp {
	ie := idleExp{
		devID:   exp.Device.ID(),
		devName: exp.Device.Profile.Name,
		column:  exp.Column,
		start:   exp.Start,
		end:     exp.End,
	}
	for _, unit := range features.Segment(exp.Packets, unitGap) {
		if len(unit.Packets) < minUnitPackets {
			ie.small++
			continue
		}
		ie.units = append(ie.units, idleUnit{start: unit.Start, end: unit.End, vec: features.Vector(unit.Packets, fs)})
	}
	return ie
}

// classifyIdle accounts one segmented idle experiment into res: the
// model lookup gates all accounting, hours and unit totals accrue per
// experiment, and detections append in the order experiments arrive.
func (d *Detector) classifyIdle(ie *idleExp, res *DetectResult) {
	model, ok := d.models[instColKey{ie.devID, ie.column}]
	if !ok {
		return
	}
	if res.deviceHours[ie.column] == nil {
		res.deviceHours[ie.column] = map[string]float64{}
	}
	res.deviceHours[ie.column][ie.devID] += ie.end.Sub(ie.start).Hours()
	if h := res.deviceHours[ie.column][ie.devID]; h > res.Hours[ie.column] {
		res.Hours[ie.column] = h
	}
	us := res.Units[ie.column]
	if us == nil {
		us = &unitStats{}
		res.Units[ie.column] = us
	}
	us.Total += ie.small + len(ie.units)
	for _, u := range ie.units {
		label, vote := model.forest.PredictTop(u.vec)
		if vote < minVote || !model.withinEnvelope(label, u.vec) {
			continue
		}
		us.Classified++
		res.Detections = append(res.Detections, Detection{
			DeviceID: ie.devID, DeviceName: ie.devName,
			Column: ie.column, Activity: label,
			Start: u.start, End: u.end,
		})
		res.Counts[DetectKey{ie.devName, label, ie.column}]++
	}
}

// Table11Row is one row of Table 11.
type Table11Row struct {
	Device   string
	Activity string
	Counts   map[string]int // column → instances
}

// Table11 renders the detection counts as rows sorted by total
// detections, dropping rows below minInstances (the paper hides rows
// with fewer than 3).
func (r *DetectResult) Table11(minInstances int) []Table11Row {
	type rowKey struct{ dev, act string }
	rows := map[rowKey]map[string]int{}
	for k, n := range r.Counts {
		rk := rowKey{k.Device, k.Activity}
		if rows[rk] == nil {
			rows[rk] = map[string]int{}
		}
		rows[rk][k.Column] += n
	}
	var out []Table11Row
	for rk, counts := range rows {
		maxCell := 0
		for _, n := range counts {
			if n > maxCell {
				maxCell = n
			}
		}
		if maxCell < minInstances {
			continue
		}
		out = append(out, Table11Row{Device: rk.dev, Activity: rk.act, Counts: counts})
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := 0, 0
		for _, n := range out[i].Counts {
			ti += n
		}
		for _, n := range out[j].Counts {
			tj += n
		}
		if ti != tj {
			return ti > tj
		}
		if out[i].Device != out[j].Device {
			return out[i].Device < out[j].Device
		}
		return out[i].Activity < out[j].Activity
	})
	return out
}

// UnexpectedFinding is a §7.3 case: a detected sensitive activity with no
// intended interaction nearby in the ground truth.
type UnexpectedFinding struct {
	Device    string
	Activity  string
	Instances int
}

// VisitUncontrolled classifies one user-study capture and checks each
// detection against ground truth; detections of non-intended activity
// are unexpected behaviour.
func (d *Detector) VisitUncontrolled(res *experiments.UncontrolledResult, out *DetectResult, unexpected map[string]int) {
	exp := res.Experiment
	model, ok := d.models[instColKey{exp.Device.ID(), exp.Column}]
	if !ok {
		return
	}
	for _, unit := range features.Segment(exp.Packets, unitGap) {
		if len(unit.Packets) < minUnitPackets {
			continue
		}
		vec := features.Vector(unit.Packets, d.FeatureSet)
		label, vote := model.forest.PredictTop(vec)
		if vote < minVote || !model.withinEnvelope(label, vec) {
			continue
		}
		out.Counts[DetectKey{exp.Device.Profile.Name, label, "uncontrolled"}]++
		// Compare with ground truth: an intended interaction within ±30 s
		// explains the detection; anything else is unexpected.
		explained := false
		for _, gt := range res.Truth {
			if !gt.Intended {
				continue
			}
			if absDur(gt.Time.Sub(unit.Start)) < 30*time.Second {
				explained = true
				break
			}
		}
		if !explained {
			unexpected[exp.Device.Profile.Name+"|"+activityBase(label)]++
		}
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
