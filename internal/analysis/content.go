package analysis

import (
	"sort"
	"sync"

	"github.com/neu-sns/intl-iot-go/internal/features"
	"github.com/neu-sns/intl-iot-go/internal/ml"
	"github.com/neu-sns/intl-iot-go/internal/par"
	"github.com/neu-sns/intl-iot-go/internal/pii"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// PIIFinding is one plaintext PII exposure (§6.2).
type PIIFinding struct {
	Device   string
	Lab      string
	Column   string
	Kind     pii.Kind
	Encoding string
	// Activity is the experiment label during which the exposure
	// occurred.
	Activity string
}

// ContentCollector performs the content analysis: it scans plaintext for
// PII and accumulates per-device labelled feature datasets for activity
// inference.
type ContentCollector struct {
	// FeatureSet selects the feature family (SetPaper by default).
	FeatureSet features.Set

	// scanners is shared by the root collector and every fold unit made
	// from it, so each device instance's scanner is compiled once per
	// pipeline.
	scanners *scannerCache
	// findings lists each distinct finding once, in first-seen order
	// (ties in the report sort depend on it).
	findings []PIIFinding
	findSeen map[PIIFinding]bool

	// datasets maps (device instance, column) to its labelled dataset.
	datasets map[instColKey]*ml.Dataset
	// meta
	devCategory map[instColKey]string
	devCommon   map[instColKey]bool
	devName     map[instColKey]string
}

// scannerCache compiles a device instance's PII scanner on first use and
// hands the same immutable scanner to every goroutine after that.
type scannerCache struct {
	mu sync.Mutex
	m  map[string]*pii.Scanner
}

func (sc *scannerCache) get(devID string, corpus *pii.Corpus) *pii.Scanner {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	s := sc.m[devID]
	if s == nil {
		s = pii.NewScanner(corpus)
		sc.m[devID] = s
	}
	return s
}

type instColKey struct {
	Device string // instance ID (lab-qualified)
	Column string
}

// NewContentCollector builds a collector.
func NewContentCollector() *ContentCollector {
	return newContentCollector(features.SetPaper, &scannerCache{m: make(map[string]*pii.Scanner)})
}

func newContentCollector(set features.Set, scanners *scannerCache) *ContentCollector {
	return &ContentCollector{
		FeatureSet:  set,
		scanners:    scanners,
		findSeen:    make(map[PIIFinding]bool),
		datasets:    make(map[instColKey]*ml.Dataset),
		devCategory: make(map[instColKey]string),
		devCommon:   make(map[instColKey]bool),
		devName:     make(map[instColKey]string),
	}
}

// Visit consumes one experiment: PII scan plus one dataset row.
func (c *ContentCollector) Visit(exp *testbed.Experiment) {
	devID := exp.Device.ID()
	// PII scan over every payload (ciphertext can't match, so scanning
	// everything is equivalent to scanning plaintext only).
	sc := c.scanners.get(devID, exp.Device.PII)
	for _, p := range exp.Packets {
		if len(p.Payload) == 0 {
			continue
		}
		for _, m := range sc.Scan(p.Payload) {
			f := PIIFinding{
				Device: exp.Device.Profile.Name, Lab: exp.Lab, Column: exp.Column,
				Kind: m.Item.Kind, Encoding: m.Encoding, Activity: exp.Activity,
			}
			if !c.findSeen[f] {
				c.findSeen[f] = true
				c.findings = append(c.findings, f)
			}
		}
	}

	// Feature row for labelled controlled experiments.
	if exp.Kind != testbed.KindPower && exp.Kind != testbed.KindInteraction {
		return
	}
	if len(exp.Packets) < 2 {
		return
	}
	key := instColKey{devID, exp.Column}
	ds := c.datasets[key]
	if ds == nil {
		ds = &ml.Dataset{FeatureNames: features.Names(c.FeatureSet)}
		c.datasets[key] = ds
		c.devCategory[key] = string(exp.Device.Profile.Category)
		c.devCommon[key] = exp.Device.Profile.Common()
		c.devName[key] = exp.Device.Profile.Name
	}
	ds.Features = append(ds.Features, features.Vector(exp.Packets, c.FeatureSet))
	ds.Labels = append(ds.Labels, exp.Activity)
}

// newFoldUnit returns an empty collector with c's feature set, sharing
// c's scanner cache.
func (c *ContentCollector) newFoldUnit() *ContentCollector {
	return newContentCollector(c.FeatureSet, c.scanners)
}

// mergeFold folds a unit into c. Units merge in delivery order, so
// appending the unit's first-seen findings that c has not seen yet, and
// its dataset rows, reproduces the lists a serial visit builds. Dataset
// rows append rather than replace: one instance's rows span every unit
// of its runs.
func (c *ContentCollector) mergeFold(o *ContentCollector) {
	for _, f := range o.findings {
		if !c.findSeen[f] {
			c.findSeen[f] = true
			c.findings = append(c.findings, f)
		}
	}
	for k, ds := range o.datasets {
		cur := c.datasets[k]
		if cur == nil {
			c.datasets[k] = ds
			c.devCategory[k] = o.devCategory[k]
			c.devCommon[k] = o.devCommon[k]
			c.devName[k] = o.devName[k]
			continue
		}
		cur.Features = append(cur.Features, ds.Features...)
		cur.Labels = append(cur.Labels, ds.Labels...)
	}
}

// Findings returns the deduplicated PII exposures sorted by device.
func (c *ContentCollector) Findings() []PIIFinding {
	out := append([]PIIFinding(nil), c.findings...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Device != out[j].Device {
			return out[i].Device < out[j].Device
		}
		if out[i].Column != out[j].Column {
			return out[i].Column < out[j].Column
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Dataset exposes one device-column dataset (nil if absent).
func (c *ContentCollector) Dataset(deviceID, column string) *ml.Dataset {
	return c.datasets[instColKey{deviceID, column}]
}

// InferenceResult is the cross-validation outcome for one device-column.
type InferenceResult struct {
	DeviceID   string
	DeviceName string
	Category   string
	Column     string
	Common     bool
	DeviceF1   float64
	ActivityF1 map[string]float64
	Samples    int
}

// InferrableThreshold is the paper's §6.3 bar.
const InferrableThreshold = 0.75

// HighAccuracyThreshold is the §7.1 bar for models used on idle traffic.
const HighAccuracyThreshold = 0.9

// InferConfig controls the evaluation.
type InferConfig struct {
	CV ml.CVConfig
	// Workers bounds model-evaluation parallelism across datasets (0
	// means GOMAXPROCS, 1 is serial); cross-validation inside each
	// dataset then runs serially. Results are identical for any value:
	// each dataset's evaluation is an independent pure function of its
	// rows and the CV seed, and results are placed by dataset index.
	Workers int
}

// DefaultInferConfig mirrors §6.3: 7/3 split, 10 repeats.
func DefaultInferConfig() InferConfig {
	return InferConfig{CV: ml.CVConfig{
		TrainFrac: 0.7, Repeats: 10, Seed: 42,
		Forest: ml.ForestConfig{NumTrees: 25},
	}}
}

// Infer cross-validates every device-column dataset.
func (c *ContentCollector) Infer(cfg InferConfig) []InferenceResult {
	keys := make([]instColKey, 0, len(c.datasets))
	for k := range c.datasets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Device != keys[j].Device {
			return keys[i].Device < keys[j].Device
		}
		return keys[i].Column < keys[j].Column
	})
	eligible := keys[:0]
	for _, k := range keys {
		ds := c.datasets[k]
		if ds.NumExamples() < 6 || len(ds.Classes()) < 2 {
			continue
		}
		eligible = append(eligible, k)
	}
	// Evaluate datasets in parallel; each result lands in its own slot,
	// so the output order matches the serial sorted-key loop exactly.
	cvCfg := cfg.CV
	cvCfg.Workers = 1 // the datasets already saturate the worker pool
	out := make([]InferenceResult, len(eligible))
	par.For(len(eligible), par.Workers(cfg.Workers), func(i int) {
		k := eligible[i]
		ds := c.datasets[k]
		res := ml.CrossValidate(ds, cvCfg)
		out[i] = InferenceResult{
			DeviceID:   k.Device,
			DeviceName: c.devName[k],
			Category:   c.devCategory[k],
			Column:     k.Column,
			Common:     c.devCommon[k],
			DeviceF1:   res.DeviceF1,
			ActivityF1: res.ActivityF1,
			Samples:    ds.NumExamples(),
		}
	})
	if len(out) == 0 {
		return nil
	}
	return out
}

// InferrableDevicesByCategory returns Table 9: per (category, column) the
// number of devices with DeviceF1 above the threshold.
func InferrableDevicesByCategory(results []InferenceResult, column string, commonOnly bool) map[string]int {
	out := map[string]int{}
	for _, r := range results {
		if r.Column != column || (commonOnly && !r.Common) {
			continue
		}
		if r.DeviceF1 > InferrableThreshold {
			out[r.Category]++
		}
	}
	return out
}

// InferrableActivitiesByGroup returns Table 10: per (activity group,
// column) the number of devices with at least one inferrable activity in
// the group.
func InferrableActivitiesByGroup(results []InferenceResult, column string, commonOnly bool) map[ActivityGroup]int {
	out := map[ActivityGroup]int{}
	for _, r := range results {
		if r.Column != column || (commonOnly && !r.Common) {
			continue
		}
		groups := map[ActivityGroup]bool{}
		for label, f1 := range r.ActivityF1 {
			if f1 > InferrableThreshold {
				groups[GroupOf(label)] = true
			}
		}
		for g := range groups {
			out[g]++
		}
	}
	return out
}

// DevicesWithActivityGroup counts, per group, the devices in a column
// whose label set includes the group at all (Table 10's "(#D)").
func DevicesWithActivityGroup(results []InferenceResult, column string) map[ActivityGroup]int {
	out := map[ActivityGroup]int{}
	for _, r := range results {
		if r.Column != column {
			continue
		}
		groups := map[ActivityGroup]bool{}
		for label := range r.ActivityF1 {
			groups[GroupOf(label)] = true
		}
		for g := range groups {
			out[g]++
		}
	}
	return out
}
