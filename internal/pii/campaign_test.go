package pii_test

import (
	"reflect"
	"testing"

	"github.com/neu-sns/intl-iot-go/internal/devices"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/pii"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

// TestScanMatchesReferenceOnCampaign scans every payload of a seeded
// tiny campaign — controlled and idle legs, plaintext and ciphertext —
// with both the Scanner and the reference scan, and requires identical
// match lists. Each payload is scanned with its own device's corpus, as
// the content analysis does, and with a second instance's corpus taken
// round-robin from devices.Instances(), so every catalog corpus meets
// both its own traffic and other devices'.
func TestScanMatchesReferenceOnCampaign(t *testing.T) {
	insts := devices.Instances()
	type scanners struct {
		fast *pii.Scanner
		ref  interface{ Scan([]byte) []pii.Match }
	}
	byID := make(map[string]scanners, len(insts))
	for _, in := range insts {
		byID[in.ID()] = scanners{pii.NewScanner(in.PII), pii.NewReferenceScanner(in.PII)}
	}
	r, err := experiments.NewRunner(experiments.Config{
		Seed: 1, AutomatedReps: 1, ManualReps: 1, PowerReps: 1, Workers: 1,
		IdleHours: map[string]float64{"US": 1, "GB": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	own := map[string]bool{}
	var exps, payloads, matched int
	visit := func(exp *testbed.Experiment) {
		id := exp.Device.ID()
		own[id] = true
		pair := []scanners{byID[id], byID[insts[exps%len(insts)].ID()]}
		exps++
		for _, p := range exp.Packets {
			if len(p.Payload) == 0 {
				continue
			}
			payloads++
			for _, sc := range pair {
				got, want := sc.fast.Scan(p.Payload), sc.ref.Scan(p.Payload)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s payload %q:\n got  %+v\n want %+v", id, exp.Activity, p.Payload, got, want)
				}
				if len(got) > 0 {
					matched++
				}
			}
		}
	}
	r.RunControlled(visit)
	r.RunIdle(visit)
	if len(own) != len(insts) {
		t.Errorf("campaign covered %d of %d device instances", len(own), len(insts))
	}
	if matched == 0 {
		t.Fatal("no payload leaked PII; the comparison tested only non-matches")
	}
	t.Logf("%d experiments, %d payloads, %d scans with matches", exps, payloads, matched)
}
