package ingest

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/cloud"
	"github.com/neu-sns/intl-iot-go/internal/devices"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/pcapio"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// makeLab builds a single US lab for synthesizing fixture captures.
func makeLab(t *testing.T) *testbed.Lab {
	t.Helper()
	lab, err := testbed.NewLab(devices.LabUS, cloud.New(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

func writeLabels(t *testing.T, path string, labels []pcapio.Label) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pcapio.WriteLabels(f, labels); err != nil {
		t.Fatal(err)
	}
}

// writeTestCapture serializes one experiment and stores it the way
// Export does: "<devDir>/<n>.pcap" plus the ".labels" sidecar.
func writeTestCapture(t *testing.T, devDir string, n int, exp *testbed.Experiment) {
	t.Helper()
	recs := make([]pcapio.Record, 0, len(exp.Packets))
	for _, p := range exp.Packets {
		recs = append(recs, pcapio.Record{Time: p.Meta.Timestamp, Data: p.Serialize()})
	}
	if err := writeCapture(devDir, n, exp, recs); err != nil {
		t.Fatal(err)
	}
}

// TestIngestRobustness builds a capture tree exercising every failure
// mode at once and checks that ingestion completes, keeps the good
// experiments, and reports every skip reason as nonzero — through both
// the buffered replay and the single-decode fold pass.
func TestIngestRobustness(t *testing.T) {
	lab := makeLab(t)
	slot := lab.Slots()[0]
	exp := lab.RunPower(slot, false, testbed.StudyEpoch, 0)
	if len(exp.Packets) == 0 {
		t.Fatal("power experiment synthesized no packets")
	}

	root := t.TempDir()
	devDir := filepath.Join(root, "controlled", filepath.FromSlash(slot.Inst.ID()))

	// 000000: a healthy capture.
	writeTestCapture(t, devDir, 0, exp)

	// 000001: the same capture cut mid-record -> truncated, prefix kept.
	raw, err := os.ReadFile(filepath.Join(devDir, "000000.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(devDir, "000001.pcap"), raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	writeLabels(t, filepath.Join(devDir, "000001.labels"), []pcapio.Label{exp.Label()})

	// 000002: valid pcap, no .labels sidecar -> unlabeled packets.
	if err := os.WriteFile(filepath.Join(devDir, "000002.pcap"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// 000003: a record too short to be an Ethernet frame -> decode skip,
	// plus one healthy frame in a labelled window so the file still
	// yields an experiment.
	func() {
		f, err := os.Create(filepath.Join(devDir, "000003.pcap"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		pw, err := pcapio.NewWriter(f, pcapio.WriterOptions{Nanosecond: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := pw.WritePacket(exp.Start, []byte{0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
		if err := pw.WritePacket(exp.Packets[0].Meta.Timestamp, exp.Packets[0].Serialize()); err != nil {
			t.Fatal(err)
		}
		if err := pw.Flush(); err != nil {
			t.Fatal(err)
		}
	}()
	writeLabels(t, filepath.Join(devDir, "000003.labels"), []pcapio.Label{exp.Label()})

	// A capture from a device the catalog has never heard of, in a
	// directory matching no instance -> unknown device.
	mystery := filepath.Join(root, "controlled", "us", "mystery-widget")
	if err := os.MkdirAll(mystery, 0o755); err != nil {
		t.Fatal(err)
	}
	func() {
		f, err := os.Create(filepath.Join(mystery, "000000.pcap"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		pw, err := pcapio.NewWriter(f, pcapio.WriterOptions{Nanosecond: true})
		if err != nil {
			t.Fatal(err)
		}
		ghost := &netx.Packet{
			Eth:     netx.Ethernet{Src: netx.MAC{0x02, 0xba, 0xdb, 0xad, 0x00, 0x01}, Dst: netx.Broadcast, EtherType: 0x1234},
			Payload: []byte("hello"),
		}
		if err := pw.WritePacket(exp.Start.Add(time.Second), ghost.Serialize()); err != nil {
			t.Fatal(err)
		}
		if err := pw.Flush(); err != nil {
			t.Fatal(err)
		}
	}()
	writeLabels(t, filepath.Join(mystery, "000000.labels"), []pcapio.Label{exp.Label()})

	// Not a pcap at all -> bad file.
	if err := os.WriteFile(filepath.Join(root, "junk.pcap"), []byte("this is not a capture"), 0o644); err != nil {
		t.Fatal(err)
	}

	reports := map[string]Report{}
	for _, mode := range []struct {
		name string
		opts Options
		run  func(*Source) ([]*testbed.Experiment, experiments.Stats)
	}{
		{"buffered", Options{Workers: 2}, func(src *Source) ([]*testbed.Experiment, experiments.Stats) {
			var got []*testbed.Experiment
			stats := src.RunControlled(func(e *testbed.Experiment) { got = append(got, e) })
			src.RunIdle(func(*testbed.Experiment) {})
			return got, stats
		}},
		{"fold", Options{Workers: 2, Stream: true}, func(src *Source) ([]*testbed.Experiment, experiments.Stats) {
			sink := &collectSink{}
			stats, _ := src.RunSingleDecode(sink)
			return sink.controlled, stats
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			src, err := Open(root, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			src.SetObs(reg)
			got, stats := mode.run(src)

			// The healthy, truncated and decode-skip files each yield one
			// experiment for the same device.
			if len(got) != 3 {
				t.Fatalf("delivered %d experiments, want 3", len(got))
			}
			if stats.Power != 3 || stats.Experiments != 3 {
				t.Fatalf("stats = %+v, want 3 power experiments", stats)
			}
			full := got[0]
			if full.Device.ID() != slot.Inst.ID() || full.Kind != testbed.KindPower {
				t.Fatalf("experiment = (%s, %s), want (%s, power)", full.Device.ID(), full.Kind, slot.Inst.ID())
			}
			if len(full.Packets) != len(exp.Packets) {
				t.Fatalf("healthy capture delivered %d packets, want %d", len(full.Packets), len(exp.Packets))
			}
			if len(got[1].Packets) >= len(exp.Packets) || len(got[1].Packets) == 0 {
				t.Fatalf("truncated capture delivered %d packets, want a nonempty strict prefix of %d",
					len(got[1].Packets), len(exp.Packets))
			}

			rep := src.Report()
			reports[mode.name] = rep
			if rep.Files != 6 {
				t.Fatalf("report.Files = %d, want 6", rep.Files)
			}
			checks := map[string]int{
				"truncated files":   rep.Skips.TruncatedFiles,
				"unknown device":    rep.Skips.UnknownDevice,
				"unlabeled packets": rep.Skips.UnlabeledPackets,
				"decode errors":     rep.Skips.DecodeErrors,
				"bad files":         rep.Skips.BadFiles,
			}
			for name, n := range checks {
				if n == 0 {
					t.Errorf("skip reason %s = 0, want nonzero (report: %s)", name, rep)
				}
			}

			// The obs snapshot mirrors the report.
			for counter, want := range map[string]int{
				"ingest_files_total":          rep.Files,
				"ingest_records_total":        rep.Records,
				"ingest_experiments_total":    rep.Experiments,
				"ingest_skips.truncated":      rep.Skips.TruncatedFiles,
				"ingest_skips.unknown_device": rep.Skips.UnknownDevice,
				"ingest_skips.unlabeled":      rep.Skips.UnlabeledPackets,
				"ingest_skips.decode":         rep.Skips.DecodeErrors,
				"ingest_skips.bad_file":       rep.Skips.BadFiles,
			} {
				if got := reg.Counter(counter).Value(); got != int64(want) {
					t.Errorf("%s = %d, want %d", counter, got, want)
				}
			}
			if reg.Histogram("ingest_file_decode_seconds", obs.DurationBuckets).Count() != 6 {
				t.Error("decode latency histogram should have one observation per file")
			}
		})
	}
	if !reflect.DeepEqual(reports["fold"], reports["buffered"]) {
		t.Errorf("fold report = %s, buffered = %s", reports["fold"], reports["buffered"])
	}
}

// collectSink gathers the controlled experiments of a fold pass in
// campaign order: each unit keeps its run, and the serial merge appends
// the runs in order. Only experiment metadata and packet counts may be
// read afterwards — payloads alias mappings the pass has released.
type collectSink struct {
	controlled []*testbed.Experiment
}

type collectUnit struct {
	exps []*testbed.Experiment
}

func (s *collectSink) NewFoldUnit(bool) experiments.FoldUnit { return &collectUnit{} }

func (s *collectSink) MergeFoldUnit(controlled bool, u experiments.FoldUnit) {
	if controlled {
		s.controlled = append(s.controlled, u.(*collectUnit).exps...)
	}
}

func (u *collectUnit) Fold(exp *testbed.Experiment) { u.exps = append(u.exps, exp) }

// TestIngestZeroPacketIdleWindow checks that an empty idle capture still
// yields an experiment via the directory-name fallback: Table 11's
// device-hours accrue even for devices that stay silent.
func TestIngestZeroPacketIdleWindow(t *testing.T) {
	lab := makeLab(t)
	slot := lab.Slots()[1]
	root := t.TempDir()
	devDir := filepath.Join(root, "idle", filepath.FromSlash(slot.Inst.ID()))
	if err := os.MkdirAll(devDir, 0o755); err != nil {
		t.Fatal(err)
	}
	func() {
		f, err := os.Create(filepath.Join(devDir, "000000.pcap"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		pw, err := pcapio.NewWriter(f, pcapio.WriterOptions{Nanosecond: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := pw.Flush(); err != nil {
			t.Fatal(err)
		}
	}()
	start := testbed.StudyEpoch
	writeLabels(t, filepath.Join(devDir, "000000.labels"), []pcapio.Label{{
		Start: start, End: start.Add(time.Hour), Experiment: "idle", Activity: "idle",
	}})

	src, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var idle []*testbed.Experiment
	src.RunControlled(func(*testbed.Experiment) {})
	src.RunIdle(func(e *testbed.Experiment) { idle = append(idle, e) })
	if len(idle) != 1 {
		t.Fatalf("delivered %d idle experiments, want 1", len(idle))
	}
	e := idle[0]
	if e.Device.ID() != slot.Inst.ID() || len(e.Packets) != 0 || e.End.Sub(e.Start) != time.Hour {
		t.Fatalf("idle experiment = (%s, %d pkts, %v), want (%s, 0 pkts, 1h)",
			e.Device.ID(), len(e.Packets), e.End.Sub(e.Start), slot.Inst.ID())
	}
}

// TestIngestVPNTagRestoresColumn checks that a vpn=1 label tag lands the
// experiment in the inter-lab table column.
func TestIngestVPNTagRestoresColumn(t *testing.T) {
	lab := makeLab(t)
	slot := lab.Slots()[0]
	exp := lab.RunPower(slot, true, testbed.StudyEpoch, 0)
	if !exp.VPN || exp.Column != "US->GB" {
		t.Fatalf("synthesized VPN experiment has column %q", exp.Column)
	}
	root := t.TempDir()
	devDir := filepath.Join(root, "controlled", filepath.FromSlash(slot.Inst.ID()))
	writeTestCapture(t, devDir, 0, exp)
	src, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []*testbed.Experiment
	src.RunControlled(func(e *testbed.Experiment) { got = append(got, e) })
	if len(got) != 1 {
		t.Fatalf("delivered %d experiments, want 1", len(got))
	}
	if !got[0].VPN || got[0].Column != "US->GB" {
		t.Fatalf("ingested experiment column = (%v, %q), want (true, US->GB)", got[0].VPN, got[0].Column)
	}
}

// TestOpenErrors checks the fail-fast paths.
func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope"), Options{}); err == nil {
		t.Error("missing directory should fail Open")
	}
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Error("directory without pcaps should fail Open")
	}
}
