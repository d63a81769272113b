package testbed

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/neu-sns/intl-iot-go/internal/cloud"
	"github.com/neu-sns/intl-iot-go/internal/devices"
	"github.com/neu-sns/intl-iot-go/internal/entropy"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/tlsmsg"
)

// TestDiskRoundTripPreservesAnalysis is the file-format faithfulness
// check: an experiment written to disk as pcap + labels and read back
// must yield identical flows, identical SNI extraction, and identical
// encryption verdicts — i.e., the analysis pipeline cannot tell the
// difference between live and on-disk captures.
func TestDiskRoundTripPreservesAnalysis(t *testing.T) {
	lab, err := NewLab(devices.LabUS, cloud.New(), 1)
	if err != nil {
		t.Fatal(err)
	}
	slot, _ := lab.Slot("Samsung TV")
	exp := lab.RunPower(slot, false, StudyEpoch, 0)

	dir := t.TempDir()
	path, err := SaveExperiment(dir, 1, exp)
	if err != nil {
		t.Fatalf("SaveExperiment: %v", err)
	}
	if filepath.Ext(path) != ".pcap" {
		t.Errorf("path = %q", path)
	}

	pkts, labels, err := LoadExperiment(path)
	if err != nil {
		t.Fatalf("LoadExperiment: %v", err)
	}
	if len(pkts) != len(exp.Packets) {
		t.Fatalf("packets: %d vs %d", len(pkts), len(exp.Packets))
	}
	if len(labels) != 1 || labels[0].Experiment != "power" {
		t.Fatalf("labels: %+v", labels)
	}
	if !labels[0].Contains(exp.Start) {
		t.Error("label window does not contain experiment start")
	}

	liveFlows := netx.AssembleFlows(exp.Packets)
	diskFlows := netx.AssembleFlows(pkts)
	if len(liveFlows) != len(diskFlows) {
		t.Fatalf("flows: %d vs %d", len(liveFlows), len(diskFlows))
	}
	for i := range liveFlows {
		lv := new(entropy.Classifier).Classify(liveFlows[i], entropy.PaperThresholds)
		dv := new(entropy.Classifier).Classify(diskFlows[i], entropy.PaperThresholds)
		if lv.Class != dv.Class || lv.Method != dv.Method {
			t.Errorf("flow %d verdict differs: live %v/%s disk %v/%s",
				i, lv.Class, lv.Method, dv.Class, dv.Method)
		}
		// SNI extraction must survive the disk round trip too.
		lsni, lok := tlsmsg.ExtractSNI(liveFlows[i].PayloadUp(4096))
		dsni, dok := tlsmsg.ExtractSNI(diskFlows[i].PayloadUp(4096))
		if lok != dok || lsni != dsni {
			t.Errorf("flow %d SNI differs: %q/%v vs %q/%v", i, lsni, lok, dsni, dok)
		}
	}
}

func TestLoadExperimentWithoutLabels(t *testing.T) {
	lab, err := NewLab(devices.LabUS, cloud.New(), 1)
	if err != nil {
		t.Fatal(err)
	}
	slot, _ := lab.Slot("Echo Dot")
	exp := lab.RunPower(slot, false, StudyEpoch, 0)
	dir := t.TempDir()
	path, err := SaveExperiment(dir, 7, exp)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the sidecar: loading should still work, labels nil.
	if err := removeLabels(path); err != nil {
		t.Fatal(err)
	}
	pkts, labels, err := LoadExperiment(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) == 0 || labels != nil {
		t.Errorf("pkts=%d labels=%v", len(pkts), labels)
	}
}

func removeLabels(pcapPath string) error {
	labelPath := pcapPath[:len(pcapPath)-len(".pcap")] + ".labels"
	return os.Remove(labelPath)
}
