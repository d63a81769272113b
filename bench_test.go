// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4–§7), plus the §5.1 entropy calibration and the ablation
// studies called out in DESIGN.md.
//
// Each table bench reuses one shared measurement campaign (built once,
// like the paper's one-month capture) and times the regeneration of its
// table from the collected aggregates; the table itself is printed once
// so the run's output contains the same rows the paper reports.
//
// Run with:
//
//	go test -bench=. -benchmem
package intliot_test

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	intliot "github.com/neu-sns/intl-iot-go"
	"github.com/neu-sns/intl-iot-go/internal/analysis"
	"github.com/neu-sns/intl-iot-go/internal/devices"
	"github.com/neu-sns/intl-iot-go/internal/entropy"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/features"
	"github.com/neu-sns/intl-iot-go/internal/ml"
	"github.com/neu-sns/intl-iot-go/internal/mud"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/report"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

var (
	studyOnce sync.Once
	study     *intliot.Study
)

// benchConfig is the shared campaign: the paper's repetition *structure*
// (automated ≫ manual, VPN legs, overnight idle) at a scale that keeps
// the full benchmark suite in CI-friendly time.
func benchConfig() intliot.Config {
	return intliot.Config{
		Seed:          1,
		AutomatedReps: 12,
		ManualReps:    3,
		PowerReps:     3,
		IdleHours: map[string]float64{
			"US": 6, "GB": 6, "US->GB": 4, "GB->US": 4,
		},
		VPN:              true,
		UncontrolledDays: 4,
	}
}

// sharedStudy builds the campaign once.
func sharedStudy(b *testing.B) *intliot.Study {
	b.Helper()
	studyOnce.Do(func() {
		s, err := intliot.NewStudy(benchConfig())
		if err != nil {
			panic(err)
		}
		s.Run()
		if err := s.RunUncontrolled(); err != nil {
			panic(err)
		}
		study = s
	})
	return study
}

var printedOnce sync.Map

func printOnce(key string, tbl *intliot.Table) {
	if _, loaded := printedOnce.LoadOrStore(key, true); loaded {
		return
	}
	fmt.Println()
	tbl.Render(os.Stdout)
}

func benchTable(b *testing.B, key string, build func() *intliot.Table) {
	s := sharedStudy(b)
	_ = s
	b.ResetTimer()
	var tbl *intliot.Table
	for i := 0; i < b.N; i++ {
		tbl = build()
	}
	b.StopTimer()
	printOnce(key, tbl)
}

func BenchmarkTable1Inventory(b *testing.B) {
	benchTable(b, "t1", func() *intliot.Table { return sharedStudy(b).Table1() })
}

func BenchmarkTable2DestByExperiment(b *testing.B) {
	benchTable(b, "t2", func() *intliot.Table { return sharedStudy(b).Table2() })
}

func BenchmarkTable3DestByCategory(b *testing.B) {
	benchTable(b, "t3", func() *intliot.Table { return sharedStudy(b).Table3() })
}

func BenchmarkTable4TopOrganizations(b *testing.B) {
	benchTable(b, "t4", func() *intliot.Table { return sharedStudy(b).Table4() })
}

func BenchmarkFigure2TrafficSankey(b *testing.B) {
	benchTable(b, "f2", func() *intliot.Table { return sharedStudy(b).Figure2() })
}

func BenchmarkSection51EntropyCalibration(b *testing.B) {
	var cal entropy.Calibration
	var err error
	for i := 0; i < b.N; i++ {
		cal, err = entropy.Calibrate(14, 1) // 14 cipher-suite samples, as in §5.1
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, loaded := printedOnce.LoadOrStore("cal", true); !loaded {
		fmt.Printf("\n§5.1 entropy calibration (paper: TLS 0.85, fernet 0.73, plaintext 0.55)\n")
		fmt.Printf("  TLS-encrypted   H = %.2f (σ=%.3f, min=%.2f, max=%.2f)\n", cal.TLS.Mean, cal.TLS.Std, cal.TLS.Min, cal.TLS.Max)
		fmt.Printf("  fernet-armored  H = %.2f (σ=%.3f, min=%.2f, max=%.2f)\n", cal.Fernet.Mean, cal.Fernet.Std, cal.Fernet.Min, cal.Fernet.Max)
		fmt.Printf("  plaintext HTML  H = %.2f (σ=%.3f, min=%.2f, max=%.2f)\n", cal.Plain.Mean, cal.Plain.Std, cal.Plain.Min, cal.Plain.Max)
	}
}

func BenchmarkTable5EncryptionQuartiles(b *testing.B) {
	benchTable(b, "t5", func() *intliot.Table { return sharedStudy(b).Table5() })
}

func BenchmarkTable6EncryptionByCategory(b *testing.B) {
	benchTable(b, "t6", func() *intliot.Table { return sharedStudy(b).Table6() })
}

func BenchmarkTable7PerDeviceUnencrypted(b *testing.B) {
	// The paper's Table 7 lists ten common devices plus three US-only.
	names := []string{
		"TP-Link Plug", "TP-Link Bulb", "Nest T-stat", "SmartThings Hub",
		"Samsung TV", "Echo Spot", "Echo Plus", "Fire TV", "Echo Dot",
		"Yi Cam", "Samsung Dryer", "Samsung Washer", "D-Link Mov Sensor",
	}
	benchTable(b, "t7", func() *intliot.Table { return sharedStudy(b).Table7(names) })
}

func BenchmarkTable8EncryptionByExperiment(b *testing.B) {
	benchTable(b, "t8", func() *intliot.Table { return sharedStudy(b).Table8() })
}

func BenchmarkTable9InferrableDevices(b *testing.B) {
	benchTable(b, "t9", func() *intliot.Table { return sharedStudy(b).Table9() })
}

func BenchmarkTable10InferrableActivities(b *testing.B) {
	benchTable(b, "t10", func() *intliot.Table { return sharedStudy(b).Table10() })
}

func BenchmarkSection62PIIScan(b *testing.B) {
	benchTable(b, "pii", func() *intliot.Table { return sharedStudy(b).PIIReport() })
}

func BenchmarkTable11IdleDetections(b *testing.B) {
	benchTable(b, "t11", func() *intliot.Table { return sharedStudy(b).Table11(3) })
}

func BenchmarkSection73Uncontrolled(b *testing.B) {
	benchTable(b, "s73", func() *intliot.Table { return sharedStudy(b).UnexpectedReport() })
}

// BenchmarkExtensionDeviceIdentification quantifies §4.4's "support
// parties can learn the types of devices in a household" via a global
// traffic→device classifier.
func BenchmarkExtensionDeviceIdentification(b *testing.B) {
	s := sharedStudy(b)
	var results []analysisIdentifyResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results = evalIdentify(s)
	}
	b.StopTimer()
	if _, loaded := printedOnce.LoadOrStore("ident", true); !loaded {
		fmt.Printf("\nExtension: device identification from traffic shape (§4.4 / §8)\n")
		for _, r := range results {
			fmt.Printf("  %-7s devices=%2d samples=%5d device-acc=%.2f category-acc=%.2f\n",
				r.Column, r.Devices, r.Samples, r.DeviceAccuracy, r.CategoryAccuracy)
		}
	}
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationEntropyThresholds sweeps the classification cut points
// against the paper's 0.4/0.8 choice over one device's captured flows.
func BenchmarkAblationEntropyThresholds(b *testing.B) {
	r, err := experiments.NewRunner(experiments.QuickConfig())
	if err != nil {
		b.Fatal(err)
	}
	// The microwave's partly-encrypted proprietary telemetry exercises
	// the entropy path (no recognizable protocol framing), so thresholds
	// actually matter.
	var flows []*netx.Flow
	slot, _ := r.US.Slot("GE Microwave")
	clock := testbed.StudyEpoch
	for rep := 0; rep < 3; rep++ {
		exp := r.US.RunPower(slot, false, clock, rep)
		flows = append(flows, netx.AssembleFlows(exp.Packets)...)
		clock = exp.End
		for ai := range slot.Inst.Profile.Activities {
			act := &slot.Inst.Profile.Activities[ai]
			iexp := r.US.RunInteraction(slot, act, act.Methods[0], false, clock, rep)
			flows = append(flows, netx.AssembleFlows(iexp.Packets)...)
			clock = iexp.End
		}
	}
	variants := []entropy.Thresholds{
		{Encrypted: 0.8, Unencrypted: 0.4, MinPayload: 16}, // paper
		{Encrypted: 0.7, Unencrypted: 0.3, MinPayload: 16},
		{Encrypted: 0.9, Unencrypted: 0.5, MinPayload: 16},
		{Encrypted: 0.85, Unencrypted: 0.2, MinPayload: 16},
	}
	b.ResetTimer()
	results := make(map[string][4]int)
	var cls entropy.Classifier
	for i := 0; i < b.N; i++ {
		for _, th := range variants {
			var counts [4]int
			for _, f := range flows {
				counts[cls.Classify(f, th).Class]++
			}
			results[fmt.Sprintf("%.2f/%.2f", th.Unencrypted, th.Encrypted)] = counts
		}
	}
	b.StopTimer()
	if _, loaded := printedOnce.LoadOrStore("ab-th", true); !loaded {
		fmt.Printf("\nAblation: entropy thresholds (unknown/enc/unenc/media flow counts)\n")
		for _, th := range variants {
			k := fmt.Sprintf("%.2f/%.2f", th.Unencrypted, th.Encrypted)
			c := results[k]
			fmt.Printf("  thresholds %s: unknown=%d encrypted=%d unencrypted=%d media=%d\n",
				k, c[entropy.ClassUnknown], c[entropy.ClassEncrypted], c[entropy.ClassUnencrypted], c[entropy.ClassMedia])
		}
	}
}

// BenchmarkAblationTrafficUnitGap sweeps the §7.1 segmentation gap.
func BenchmarkAblationTrafficUnitGap(b *testing.B) {
	r, err := experiments.NewRunner(experiments.QuickConfig())
	if err != nil {
		b.Fatal(err)
	}
	slot, _ := r.US.Slot("ZModo Doorbell")
	exp := r.US.RunIdle(slot, false, testbed.StudyEpoch, time.Hour, 0)
	gaps := []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second}
	b.ResetTimer()
	counts := map[time.Duration]int{}
	for i := 0; i < b.N; i++ {
		for _, g := range gaps {
			counts[g] = len(features.Segment(exp.Packets, g))
		}
	}
	b.StopTimer()
	if _, loaded := printedOnce.LoadOrStore("ab-gap", true); !loaded {
		fmt.Printf("\nAblation: traffic-unit gap vs unit count (paper gap: 2s; %d idle events)\n", len(exp.IdleEvents))
		for _, g := range gaps {
			fmt.Printf("  gap %6s: %d units\n", g, counts[g])
		}
	}
}

// BenchmarkAblationForestSize compares ensemble sizes on a
// representative device's activity dataset.
func BenchmarkAblationForestSize(b *testing.B) {
	ds := deviceDataset(b, "Samsung TV", features.SetPaper)
	sizes := []int{1, 5, 25, 100}
	b.ResetTimer()
	f1 := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, n := range sizes {
			res := ml.CrossValidate(ds, ml.CVConfig{
				TrainFrac: 0.7, Repeats: 3, Seed: 42,
				Forest: ml.ForestConfig{NumTrees: n},
			})
			f1[n] = res.DeviceF1
		}
	}
	b.StopTimer()
	if _, loaded := printedOnce.LoadOrStore("ab-forest", true); !loaded {
		fmt.Printf("\nAblation: forest size vs device F1 (Samsung TV, %d samples)\n", ds.NumExamples())
		for _, n := range sizes {
			fmt.Printf("  %3d trees: F1 = %.3f\n", n, f1[n])
		}
	}
}

// BenchmarkAblationFeatureSets compares the paper's timing-only features
// against the extended set.
func BenchmarkAblationFeatureSets(b *testing.B) {
	sets := []features.Set{features.SetPaper, features.SetExtended}
	names := []string{"paper (timing-only)", "extended (+volume)"}
	b.ResetTimer()
	f1 := map[features.Set]float64{}
	for i := 0; i < b.N; i++ {
		for _, set := range sets {
			ds := deviceDataset(b, "Echo Dot", set)
			res := ml.CrossValidate(ds, ml.CVConfig{
				TrainFrac: 0.7, Repeats: 3, Seed: 42,
				Forest: ml.ForestConfig{NumTrees: 15},
			})
			f1[set] = res.DeviceF1
		}
	}
	b.StopTimer()
	if _, loaded := printedOnce.LoadOrStore("ab-feat", true); !loaded {
		fmt.Printf("\nAblation: feature sets vs device F1 (Echo Dot)\n")
		for i, set := range sets {
			fmt.Printf("  %-22s F1 = %.3f\n", names[i], f1[set])
		}
	}
}

// deviceDataset builds a labelled dataset for one US device by running
// its controlled experiments.
func deviceDataset(b *testing.B, device string, set features.Set) *ml.Dataset {
	b.Helper()
	r, err := experiments.NewRunner(experiments.Config{
		Seed: 1, AutomatedReps: 10, ManualReps: 3, PowerReps: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	slot, ok := r.US.Slot(device)
	if !ok {
		b.Fatalf("device %q not in US lab", device)
	}
	ds := &ml.Dataset{FeatureNames: features.Names(set)}
	clock := testbed.StudyEpoch
	for rep := 0; rep < 3; rep++ {
		exp := r.US.RunPower(slot, false, clock, rep)
		ds.Features = append(ds.Features, features.Vector(exp.Packets, set))
		ds.Labels = append(ds.Labels, "power")
		clock = exp.End.Add(30 * time.Second)
	}
	for ai := range slot.Inst.Profile.Activities {
		act := &slot.Inst.Profile.Activities[ai]
		for _, m := range act.Methods {
			reps := 10
			if act.Manual || m == devices.MethodLocal {
				reps = 3
			}
			for rep := 0; rep < reps; rep++ {
				exp := r.US.RunInteraction(slot, act, m, false, clock, rep)
				ds.Features = append(ds.Features, features.Vector(exp.Packets, set))
				ds.Labels = append(ds.Labels, exp.Activity)
				clock = exp.End.Add(15 * time.Second)
			}
		}
	}
	return ds
}

// Sanity check that the report package stays wired to the bench harness.
var _ = report.Table1

// BenchmarkExtensionMUDCompliance exercises the RFC 8520 extension:
// profile generation plus compliance checking for every catalog device.
func BenchmarkExtensionMUDCompliance(b *testing.B) {
	r, err := experiments.NewRunner(experiments.QuickConfig())
	if err != nil {
		b.Fatal(err)
	}
	type capture struct {
		doc  *mud.Document
		pkts []*netx.Packet
	}
	var caps []capture
	for _, slot := range r.US.Slots() {
		exp := r.US.RunPower(slot, false, testbed.StudyEpoch, 0)
		caps = append(caps, capture{mud.Generate(slot.Inst.Profile), exp.Packets})
	}
	b.ResetTimer()
	violations := 0
	for i := 0; i < b.N; i++ {
		violations = 0
		for _, c := range caps {
			violations += len(mud.NewChecker(c.doc).Check(c.pkts))
		}
	}
	b.StopTimer()
	if _, loaded := printedOnce.LoadOrStore("mud", true); !loaded {
		fmt.Printf("\nExtension: MUD compliance over %d US devices (direct egress): %d violations\n",
			len(caps), violations)
	}
}

// local aliases so the identification bench reads cleanly.
type analysisIdentifyResult = analysis.IdentifyResult

func evalIdentify(s *intliot.Study) []analysisIdentifyResult {
	return s.Pipeline().Identify.Evaluate(ml.CVConfig{
		TrainFrac: 0.7, Repeats: 3, Seed: 42,
		Forest: ml.ForestConfig{NumTrees: 15},
	})
}
