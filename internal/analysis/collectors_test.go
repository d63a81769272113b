package analysis

import (
	"sync"
	"testing"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/cloud"
	"github.com/neu-sns/intl-iot-go/internal/devices"
	"github.com/neu-sns/intl-iot-go/internal/geo"
	"github.com/neu-sns/intl-iot-go/internal/ml"
	"github.com/neu-sns/intl-iot-go/internal/orgdb"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// labPair builds two labs over one Internet for collector unit tests.
func labPair(t *testing.T) (*testbed.Lab, *testbed.Lab, *cloud.Internet) {
	t.Helper()
	in := cloud.New()
	us, err := testbed.NewLab(devices.LabUS, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	uk, err := testbed.NewLab(devices.LabUK, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	return us, uk, in
}

func destCollectorFor(in *cloud.Internet) *DestCollector {
	return NewDestCollector(in.Registry, map[string]*geo.Locator{
		"US": in.Locator("US"),
		"GB": in.Locator("GB"),
	})
}

func TestDestCollectorFirstPartyExcluded(t *testing.T) {
	us, _, in := labPair(t)
	d := destCollectorFor(in)
	// Echo Dot talks almost exclusively to Amazon (its manufacturer) —
	// the Akamai CDN is its only non-first party.
	slot, _ := us.Slot("Echo Dot")
	d.Visit(us.RunPower(slot, false, testbed.StudyEpoch, 0))
	for k := range d.byExpParty {
		if k.Party == orgdb.PartyThird && len(d.byExpParty[k]) > 0 {
			t.Errorf("Echo Dot should have no third parties: %v", d.byExpParty[k])
		}
	}
	withNFP, total := d.DevicesWithNonFirstParty()
	if total != 1 {
		t.Fatalf("total = %d", total)
	}
	// The audio CDN is a support party for Amazon devices.
	if withNFP != 1 {
		t.Errorf("Echo Dot should reach its CDN support party")
	}
}

func TestDestCollectorPartyForTracker(t *testing.T) {
	us, _, in := labPair(t)
	d := destCollectorFor(in)
	slot, _ := us.Slot("Samsung TV") // contacts Netflix + Facebook
	d.Visit(us.RunPower(slot, false, testbed.StudyEpoch, 0))
	third := d.CountByCategoryParty("TV", orgdb.PartyThird, "US", false)
	if third < 2 {
		t.Errorf("Samsung TV third parties = %d, want ≥ 2 (Netflix, Facebook, Nuri)", third)
	}
	rows := d.TopOrganizations(0)
	found := map[string]bool{}
	for _, r := range rows {
		found[r.Org] = true
	}
	for _, want := range []string{"Netflix", "Facebook", "Nuri"} {
		if !found[want] {
			t.Errorf("org %s missing from rollup: %v", want, rows)
		}
	}
}

func TestDestCollectorGeolocation(t *testing.T) {
	us, _, in := labPair(t)
	d := destCollectorFor(in)
	slot, _ := us.Slot("Xiaomi Rice Cooker")
	d.Visit(us.RunPower(slot, false, testbed.StudyEpoch, 0))
	bands := d.TrafficBands(0)
	if len(bands) == 0 {
		t.Fatal("no bands")
	}
	hasCN := false
	for _, b := range bands {
		if b.Country == "CN" && b.Bytes > 0 {
			hasCN = true
		}
	}
	if !hasCN {
		t.Errorf("rice cooker traffic should terminate in CN: %+v", bands)
	}
}

func TestEncCollectorSingleExperiment(t *testing.T) {
	us, _, _ := labPair(t)
	e := NewEncCollector()
	slot, _ := us.Slot("Echo Dot")
	e.Visit(us.RunPower(slot, false, testbed.StudyEpoch, 0))
	enc, ok := e.DeviceShare("Echo Dot", "US", EncEncrypted)
	if !ok {
		t.Fatal("no share recorded")
	}
	if enc < 0.5 {
		t.Errorf("Echo Dot encrypted share = %v, want > 0.5", enc)
	}
	if _, ok := e.DeviceShare("Echo Dot", "GB", EncEncrypted); ok {
		t.Error("no UK data should exist")
	}
	if _, ok := e.DeviceShare("Nonexistent", "US", EncEncrypted); ok {
		t.Error("unknown device should miss")
	}
}

func TestEncCollectorQuartilesSumToDevices(t *testing.T) {
	us, _, _ := labPair(t)
	e := NewEncCollector()
	for _, name := range []string{"Echo Dot", "TP-Link Plug", "Samsung TV"} {
		slot, _ := us.Slot(name)
		e.Visit(us.RunPower(slot, false, testbed.StudyEpoch, 0))
	}
	q := e.QuartileCounts(EncEncrypted, "US", false)
	if q[0]+q[1]+q[2]+q[3] != 3 {
		t.Errorf("quartiles = %v, want sum 3", q)
	}
}

func TestContentCollectorBuildsDatasets(t *testing.T) {
	us, _, _ := labPair(t)
	c := NewContentCollector()
	slot, _ := us.Slot("Echo Dot")
	clock := testbed.StudyEpoch
	for rep := 0; rep < 4; rep++ {
		exp := us.RunPower(slot, false, clock, rep)
		c.Visit(exp)
		clock = exp.End.Add(time.Minute)
	}
	act, _ := slot.Inst.Profile.Activity("voice")
	for rep := 0; rep < 4; rep++ {
		exp := us.RunInteraction(slot, act, devices.MethodLocal, false, clock, rep)
		c.Visit(exp)
		clock = exp.End.Add(time.Minute)
	}
	ds := c.Dataset("us/echo-dot", "US")
	if ds == nil {
		t.Fatal("dataset missing")
	}
	if ds.NumExamples() != 8 {
		t.Errorf("examples = %d", ds.NumExamples())
	}
	classes := ds.Classes()
	if len(classes) != 2 {
		t.Errorf("classes = %v", classes)
	}
	// Idle experiments must not add rows.
	c.Visit(us.RunIdle(slot, false, clock, time.Hour, 0))
	if ds.NumExamples() != 8 {
		t.Error("idle experiment leaked into dataset")
	}
}

func TestContentCollectorInferSkipsTinyDatasets(t *testing.T) {
	us, _, _ := labPair(t)
	c := NewContentCollector()
	slot, _ := us.Slot("Echo Dot")
	c.Visit(us.RunPower(slot, false, testbed.StudyEpoch, 0))
	results := c.Infer(DefaultInferConfig())
	if len(results) != 0 {
		t.Errorf("single-class tiny dataset should be skipped: %+v", results)
	}
}

// TestContentShardsShareScanners visits one device from two shards at
// once: both must use the root collector's scanner cache, which then
// holds the device's scanner exactly once.
func TestContentShardsShareScanners(t *testing.T) {
	us, _, _ := labPair(t)
	c := NewContentCollector()
	slot, _ := us.Slot("Magichome Strip")
	exps := []*testbed.Experiment{
		us.RunPower(slot, false, testbed.StudyEpoch, 0),
		us.RunPower(slot, false, testbed.StudyEpoch.Add(time.Hour), 1),
	}
	var wg sync.WaitGroup
	for i, exp := range exps {
		shard := c.newShard()
		if shard.scanners != c.scanners {
			t.Fatal("shard has its own scanner cache")
		}
		wg.Add(1)
		go func(seq int64, exp *testbed.Experiment) {
			defer wg.Done()
			shard.visitAt(seq, exp)
		}(int64(i), exp)
	}
	wg.Wait()
	if n := len(c.scanners.m); n != 1 {
		t.Fatalf("scanner cache holds %d scanners, want 1", n)
	}
}

func TestDetectorEnvelope(t *testing.T) {
	ds := &ml.Dataset{
		Features: [][]float64{
			{100, 200}, {110, 210}, {120, 190},
			{1000, 2000}, {1100, 2100},
		},
		Labels: []string{"a", "a", "a", "b", "b"},
	}
	env := buildEnvelopes(ds)
	m := &deviceModel{envelopes: env}
	if !m.withinEnvelope("a", []float64{105, 205}) {
		t.Error("in-range vector rejected")
	}
	if m.withinEnvelope("a", []float64{1000, 2000}) {
		t.Error("class-b vector accepted for class a")
	}
	if m.withinEnvelope("missing", []float64{1, 2}) {
		t.Error("unknown class accepted")
	}
	// Margin tolerates modest extrapolation.
	if !m.withinEnvelope("a", []float64{95, 215}) {
		t.Error("near-range vector rejected")
	}
}

func TestDetectResultTable11Filtering(t *testing.T) {
	res := NewDetectResult()
	res.Counts[DetectKey{"Dev A", "local_move", "US"}] = 10
	res.Counts[DetectKey{"Dev A", "local_move", "GB"}] = 2
	res.Counts[DetectKey{"Dev B", "power", "US"}] = 1
	rows := res.Table11(3)
	if len(rows) != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Device != "Dev A" || rows[0].Counts["US"] != 10 || rows[0].Counts["GB"] != 2 {
		t.Errorf("row = %+v", rows[0])
	}
	all := res.Table11(1)
	if len(all) != 2 {
		t.Errorf("unfiltered rows = %d", len(all))
	}
	// Sorted by total descending.
	if all[0].Device != "Dev A" {
		t.Error("rows not sorted by total")
	}
}

func TestInferrableHelpers(t *testing.T) {
	results := []InferenceResult{
		{DeviceID: "us/a", Category: "Cameras", Column: "US", Common: true, DeviceF1: 0.9,
			ActivityF1: map[string]float64{"local_move": 0.95, "android_lan_on": 0.5}},
		{DeviceID: "us/b", Category: "Cameras", Column: "US", Common: false, DeviceF1: 0.6,
			ActivityF1: map[string]float64{"power": 0.8}},
		{DeviceID: "gb/a", Category: "TV", Column: "GB", Common: true, DeviceF1: 0.8,
			ActivityF1: map[string]float64{"local_menu": 0.85}},
	}
	byCat := InferrableDevicesByCategory(results, "US", false)
	if byCat["Cameras"] != 1 {
		t.Errorf("cameras inferrable = %d", byCat["Cameras"])
	}
	byCatCommon := InferrableDevicesByCategory(results, "US", true)
	if byCatCommon["Cameras"] != 1 {
		t.Errorf("common cameras = %d", byCatCommon["Cameras"])
	}
	groups := InferrableActivitiesByGroup(results, "US", false)
	if groups[GroupMovement] != 1 || groups[GroupPower] != 1 || groups[GroupOnOff] != 0 {
		t.Errorf("groups = %v", groups)
	}
	with := DevicesWithActivityGroup(results, "US")
	if with[GroupMovement] != 1 || with[GroupOnOff] != 1 {
		t.Errorf("with = %v", with)
	}
}
