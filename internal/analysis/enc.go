package analysis

import (
	"sort"

	"github.com/neu-sns/intl-iot-go/internal/entropy"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/stats"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// EncClass is the byte bucket of Tables 5–8: unencrypted (X), encrypted
// (✓), unknown (?). Media with *recognized* encodings counts as
// unencrypted per §5.1 ("mark any traffic that contains them as
// unencrypted"); unrecognized proprietary streams land in unknown via the
// entropy path.
type EncClass int

const (
	EncUnencrypted EncClass = iota // the paper's "X"
	EncEncrypted                   // the paper's "✓"
	EncUnknown                     // the paper's "?"
)

// String returns the table glyph.
func (e EncClass) String() string {
	switch e {
	case EncUnencrypted:
		return "X"
	case EncEncrypted:
		return "OK"
	default:
		return "?"
	}
}

// EncClasses is the row-group order of Tables 5–8.
var EncClasses = []EncClass{EncUnencrypted, EncEncrypted, EncUnknown}

func bucketOf(class entropy.Class) EncClass {
	switch class {
	case entropy.ClassEncrypted:
		return EncEncrypted
	case entropy.ClassUnencrypted, entropy.ClassMedia:
		return EncUnencrypted
	default:
		return EncUnknown
	}
}

// EncCollector performs the encryption analysis.
type EncCollector struct {
	Thresholds entropy.Thresholds

	// OnFlow, when set, observes every classified non-LAN flow: the fleet
	// runner taps it on its standalone per-home collectors to fold
	// encryption volumes into its aggregate without buffering. The fold
	// units a Pipeline spawns never call it.
	OnFlow func(exp *testbed.Experiment, class EncClass, wireBytes int64)

	// byte counters
	devBytes map[devColKey][3]int64
	catBytes map[catColKey][3]int64
	expBytes map[expColKey][3]int64
	// per-experiment unencrypted fractions for significance testing,
	// stratified by experiment label so cross-column comparisons are not
	// swamped by between-interaction variance
	devSamples map[devLabelKey][]float64
	devLabels  map[string]map[string]bool // device → labels seen
	// device metadata
	devCategory map[string]string
	devCommon   map[string]bool
	devName     map[string]string
	devLab      map[string]string
	// per-experiment-type device sets (Table 8's "(#D)" counts)
	expDevices map[ExpType]map[string]bool

	// metric sums for the enc-metrics table: per (column, class), the
	// entropy family summed over classified flows in fixed-point
	// micro-units. Integer accumulation keeps the sums commutative, so
	// the table stays byte-identical for any worker count or merge order.
	metricSums  map[metricKey][4]int64
	metricFlows map[metricKey]int64

	// scratch and classify recycle flow-assembly state and head-payload
	// buffers across Visit calls.
	scratch  netx.FlowScratch
	classify entropy.Classifier
}

type metricKey struct {
	Column string
	Class  EncClass
}

// metricScale is the fixed-point unit of metricSums: per-flow metric
// values in [0, 1] are rounded to micro-units before summing.
const metricScale = 1e6

type devColKey struct {
	Device string // device model name (not instance), plus lab via column
	Column string
}

type devLabelKey struct {
	Device string
	Column string
	Label  string
}

type catColKey struct {
	Cat    string
	Column string
	Common bool
}

type expColKey struct {
	Exp    ExpType
	Column string
	Common bool
}

// NewEncCollector builds a collector with the paper's thresholds.
func NewEncCollector() *EncCollector {
	return &EncCollector{
		Thresholds:  entropy.PaperThresholds,
		devBytes:    make(map[devColKey][3]int64),
		catBytes:    make(map[catColKey][3]int64),
		expBytes:    make(map[expColKey][3]int64),
		devSamples:  make(map[devLabelKey][]float64),
		devLabels:   make(map[string]map[string]bool),
		devCategory: make(map[string]string),
		devCommon:   make(map[string]bool),
		devName:     make(map[string]string),
		devLab:      make(map[string]string),
		expDevices:  make(map[ExpType]map[string]bool),
		metricSums:  make(map[metricKey][4]int64),
		metricFlows: make(map[metricKey]int64),
	}
}

// Visit consumes one experiment.
func (c *EncCollector) Visit(exp *testbed.Experiment) {
	name := exp.Device.Profile.Name
	col := exp.Column
	common := exp.Device.Profile.Common()
	dk := devColKey{name, col}
	c.devCategory[name] = string(exp.Device.Profile.Category)
	c.devCommon[name] = common
	c.devName[name] = name
	c.devLab[name] = exp.Lab

	var perExp [3]int64
	flows := c.scratch.Assemble(exp.Packets)
	for _, f := range flows {
		if isLANAddr(f.Responder.Addr) {
			continue // the encryption analysis covers Internet traffic only
		}
		v := c.classify.Classify(f, c.Thresholds)
		b := bucketOf(v.Class)
		perExp[b] += int64(f.TotalWireBytes())
		if v.Method != "empty" {
			mk := metricKey{col, b}
			ms := c.metricSums[mk]
			ms[0] += int64(v.Metrics.Shannon*metricScale + 0.5)
			ms[1] += int64(v.Metrics.RenyiHalf*metricScale + 0.5)
			ms[2] += int64(v.Metrics.Renyi2*metricScale + 0.5)
			ms[3] += int64(v.Metrics.Tsallis2*metricScale + 0.5)
			c.metricSums[mk] = ms
			c.metricFlows[mk]++
		}
		if c.OnFlow != nil {
			c.OnFlow(exp, b, int64(f.TotalWireBytes()))
		}
	}
	total := perExp[0] + perExp[1] + perExp[2]
	if total == 0 {
		return
	}

	dv := c.devBytes[dk]
	for i := range dv {
		dv[i] += perExp[i]
	}
	c.devBytes[dk] = dv
	lk := devLabelKey{name, col, exp.Activity}
	c.devSamples[lk] = append(c.devSamples[lk], float64(perExp[EncUnencrypted])/float64(total))
	if c.devLabels[name] == nil {
		c.devLabels[name] = map[string]bool{}
	}
	c.devLabels[name][exp.Activity] = true

	ck := catColKey{string(exp.Device.Profile.Category), col, false}
	cv := c.catBytes[ck]
	for i := range cv {
		cv[i] += perExp[i]
	}
	c.catBytes[ck] = cv
	if common {
		ckc := catColKey{string(exp.Device.Profile.Category), col, true}
		cvc := c.catBytes[ckc]
		for i := range cvc {
			cvc[i] += perExp[i]
		}
		c.catBytes[ckc] = cvc
	}

	for _, t := range ExpTypes(exp) {
		ek := expColKey{t, col, false}
		ev := c.expBytes[ek]
		for i := range ev {
			ev[i] += perExp[i]
		}
		c.expBytes[ek] = ev
		if common {
			ekc := expColKey{t, col, true}
			evc := c.expBytes[ekc]
			for i := range evc {
				evc[i] += perExp[i]
			}
			c.expBytes[ekc] = evc
		}
		if c.expDevices[t] == nil {
			c.expDevices[t] = map[string]bool{}
		}
		c.expDevices[t][exp.Device.ID()] = true
	}
}

// newFoldUnit returns an empty collector with c's thresholds.
func (c *EncCollector) newFoldUnit() *EncCollector {
	s := NewEncCollector()
	s.Thresholds = c.Thresholds
	return s
}

// mergeFold folds a unit's accumulators into c. Byte counters add,
// device sets union, metadata rewrites. The one order-sensitive
// structure, devSamples (float slices feeding Welch t-tests), appends
// the unit's samples; units merge in delivery order, so every slice
// keeps the serial append order.
func (c *EncCollector) mergeFold(o *EncCollector) {
	for k, v := range o.devBytes {
		cur := c.devBytes[k]
		for i := range cur {
			cur[i] += v[i]
		}
		c.devBytes[k] = cur
	}
	for k, v := range o.catBytes {
		cur := c.catBytes[k]
		for i := range cur {
			cur[i] += v[i]
		}
		c.catBytes[k] = cur
	}
	for k, v := range o.expBytes {
		cur := c.expBytes[k]
		for i := range cur {
			cur[i] += v[i]
		}
		c.expBytes[k] = cur
	}
	for k, samples := range o.devSamples {
		c.devSamples[k] = append(c.devSamples[k], samples...)
	}
	for k, v := range o.metricSums {
		cur := c.metricSums[k]
		for i := range cur {
			cur[i] += v[i]
		}
		c.metricSums[k] = cur
	}
	for k, v := range o.metricFlows {
		c.metricFlows[k] += v
	}
	mergeStringSet(c.devLabels, o.devLabels)
	for k, v := range o.devCategory {
		c.devCategory[k] = v
	}
	for k, v := range o.devCommon {
		c.devCommon[k] = v
	}
	for k, v := range o.devName {
		c.devName[k] = v
	}
	for k, v := range o.devLab {
		// Informational only (never read back); as in a serial visit the
		// last lab seen wins for common models deployed in both labs.
		c.devLab[k] = v
	}
	for t, set := range o.expDevices {
		if c.expDevices[t] == nil {
			c.expDevices[t] = set
			continue
		}
		for dev := range set {
			c.expDevices[t][dev] = true
		}
	}
}

// share returns the byte share of one class in a counter.
func share(v [3]int64, class EncClass) float64 {
	total := v[0] + v[1] + v[2]
	if total == 0 {
		return 0
	}
	return float64(v[class]) / float64(total)
}

// DeviceShare returns the byte share of a class for (device model,
// column).
func (c *EncCollector) DeviceShare(device, column string, class EncClass) (float64, bool) {
	v, ok := c.devBytes[devColKey{device, column}]
	if !ok {
		return 0, false
	}
	return share(v, class), true
}

// QuartileCounts returns Table 5: for each class, how many devices in a
// column fall into each share quartile (>75, 50–75, 25–50, <25).
// commonOnly restricts to common devices.
func (c *EncCollector) QuartileCounts(class EncClass, column string, commonOnly bool) [4]int {
	var out [4]int
	for k, v := range c.devBytes {
		if k.Column != column {
			continue
		}
		if commonOnly && !c.devCommon[k.Device] {
			continue
		}
		s := share(v, class)
		switch {
		case s > 0.75:
			out[0]++
		case s > 0.50:
			out[1]++
		case s > 0.25:
			out[2]++
		default:
			out[3]++
		}
	}
	return out
}

// CategoryShare returns Table 6's cell: percent of bytes in a class for
// (category, column).
func (c *EncCollector) CategoryShare(cat string, class EncClass, column string, commonOnly bool) float64 {
	return share(c.catBytes[catColKey{cat, column, commonOnly}], class) * 100
}

// ExpShare returns Table 8's cell.
func (c *EncCollector) ExpShare(t ExpType, class EncClass, column string, commonOnly bool) float64 {
	return share(c.expBytes[expColKey{t, column, commonOnly}], class) * 100
}

// ExpDeviceCount returns Table 8's "(#D)" annotation.
func (c *EncCollector) ExpDeviceCount(t ExpType) int { return len(c.expDevices[t]) }

// DeviceRow is one Table 7 row with significance markers.
type DeviceRow struct {
	Device string
	// Unencrypted percent per column.
	Percent map[string]float64
	// SigVPN marks a significant direct-vs-VPN difference (bold).
	SigVPN bool
	// SigRegion marks a significant US-vs-UK difference (italic).
	SigRegion bool
	// Common reports deployment in both labs.
	Common bool
}

// DeviceRows returns Table 7 for the named devices (nil = all devices
// sorted by name). Significance uses per-interaction Welch t-tests with a
// Bonferroni correction: a device differs between two columns when any
// of its experiment labels shows p < 0.01/numLabels. Stratifying by label
// keeps between-interaction variance from masking real shifts.
func (c *EncCollector) DeviceRows(names []string) []DeviceRow {
	if names == nil {
		seen := map[string]bool{}
		for k := range c.devBytes {
			seen[k.Device] = true
		}
		for n := range seen {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	var rows []DeviceRow
	for _, name := range names {
		row := DeviceRow{Device: name, Percent: map[string]float64{}, Common: c.devCommon[name]}
		for _, col := range Columns {
			if s, ok := c.DeviceShare(name, col, EncUnencrypted); ok {
				row.Percent[col] = s * 100
			}
		}
		row.SigRegion = c.significantDiff(name, "US", "GB")
		row.SigVPN = c.significantDiff(name, "US", "US->GB") ||
			c.significantDiff(name, "GB", "GB->US")
		rows = append(rows, row)
	}
	return rows
}

// MetricMeans returns the per-flow mean of each entropy metric — Shannon,
// Rényi α=0.5, Rényi α=2, Tsallis q=2, in that order — over the flows of
// one (column, class) cell, plus the number of flows measured. Flows with
// empty head payloads carry no entropy sample and are excluded.
func (c *EncCollector) MetricMeans(column string, class EncClass) ([4]float64, int64) {
	k := metricKey{column, class}
	n := c.metricFlows[k]
	var out [4]float64
	if n == 0 {
		return out, 0
	}
	sums := c.metricSums[k]
	for i := range out {
		out[i] = float64(sums[i]) / metricScale / float64(n)
	}
	return out, n
}

// significantDiff applies the stratified Welch test between two columns
// of one device.
func (c *EncCollector) significantDiff(device, colA, colB string) bool {
	labels := c.devLabels[device]
	if len(labels) == 0 {
		return false
	}
	alpha := 0.01 / float64(len(labels))
	for label := range labels {
		a := c.devSamples[devLabelKey{device, colA, label}]
		b := c.devSamples[devLabelKey{device, colB, label}]
		if len(a) < 3 || len(b) < 3 {
			continue
		}
		if stats.WelchT(a, b).P < alpha {
			return true
		}
	}
	return false
}
