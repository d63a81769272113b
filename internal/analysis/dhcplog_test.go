package analysis

import (
	"testing"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

func TestExtractDHCPLog(t *testing.T) {
	us, _, _ := labPair(t)
	slot, _ := us.Slot("Echo Dot")
	exp := us.RunPower(slot, false, testbed.StudyEpoch, 0)
	log := ExtractDHCPLog(exp.Packets)
	// Boot chatter contains DISCOVER and REQUEST; only DISCOVER(+REQUEST
	// with op 53) count as client messages — the generator emits one of
	// each, but only type-1 is a DISCOVER.
	if len(log) != 1 {
		t.Fatalf("DHCP events = %d, want 1 DISCOVER", len(log))
	}
	if log[0].MAC != slot.Inst.MAC {
		t.Errorf("MAC = %v, want %v", log[0].MAC, slot.Inst.MAC)
	}
	if !log[0].Time.Equal(testbed.StudyEpoch) {
		t.Errorf("time = %v", log[0].Time)
	}
}

func TestExplainedPowerDetections(t *testing.T) {
	mac, err := netx.ParseMAC("74:da:38:00:00:99")
	if err != nil {
		t.Fatal(err)
	}
	t0 := testbed.StudyEpoch
	res := NewDetectResult()
	res.Detections = []Detection{
		{DeviceID: "us/dev", Activity: "power", Start: t0.Add(10 * time.Second)},
		{DeviceID: "us/dev", Activity: "power", Start: t0.Add(2 * time.Hour)},
		{DeviceID: "us/dev", Activity: "local_move", Start: t0},
	}
	log := []DHCPEvent{{MAC: mac, Time: t0}}
	macOf := func(id string) (netx.MAC, bool) { return mac, id == "us/dev" }

	explained, unexplained := ExplainedPowerDetections(res, log, time.Minute, macOf)
	if explained != 1 || unexplained != 1 {
		t.Fatalf("explained=%d unexplained=%d", explained, unexplained)
	}

	// Unknown device: everything unexplained.
	macOfNone := func(string) (netx.MAC, bool) { return netx.MAC{}, false }
	explained, unexplained = ExplainedPowerDetections(res, log, time.Minute, macOfNone)
	if explained != 0 || unexplained != 2 {
		t.Fatalf("unknown device: explained=%d unexplained=%d", explained, unexplained)
	}
}

func TestDHCPLogExplainsIdleReconnects(t *testing.T) {
	// End-to-end: idle reconnects replay the power handshake (including
	// DHCP), so power detections during idle periods should be explained
	// by the gateway's DHCP log — the paper's §7.2 verification.
	us, _, _ := labPair(t)
	slot, _ := us.Slot("Wansview Cam")
	exp := us.RunIdle(slot, false, testbed.StudyEpoch, 8*time.Hour, 0)
	log := CollectDHCPLog([]*testbed.Experiment{exp})
	reconnects := 0
	for _, ev := range exp.IdleEvents {
		if ev.Activity == "power" {
			reconnects++
		}
	}
	if reconnects == 0 {
		t.Skip("no reconnects drawn in this window")
	}
	if len(log) < reconnects {
		t.Errorf("DHCP log has %d events for %d reconnects", len(log), reconnects)
	}
}
