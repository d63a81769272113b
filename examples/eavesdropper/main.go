// Eavesdropper: demonstrate the paper's §6.3 result from the viewpoint of
// a passive network observer at the user's ISP. The observer sits on the
// WAN side of the home gateway: every flow is NATed to the home's public
// address and virtually all payload is encrypted — yet by training a
// random forest on packet-size and inter-arrival statistics it reliably
// infers *what the user did* with the device.
//
// The example trains on labelled WAN-side captures of an Echo Dot, then
// replays fresh unlabelled captures and prints the inferred activity next
// to the ground truth.
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/cloud"
	"github.com/neu-sns/intl-iot-go/internal/devices"
	"github.com/neu-sns/intl-iot-go/internal/entropy"
	"github.com/neu-sns/intl-iot-go/internal/features"
	"github.com/neu-sns/intl-iot-go/internal/ml"
	"github.com/neu-sns/intl-iot-go/internal/netx"
	"github.com/neu-sns/intl-iot-go/internal/testbed"
)

func main() {
	lab, err := testbed.NewLab(devices.LabUS, cloud.New(), 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	slot, _ := lab.Slot("Echo Dot")

	// Phase 1: the observer collects labelled training captures.
	fmt.Println("Training on labelled Echo Dot captures...")
	ds := &ml.Dataset{FeatureNames: features.Names(features.SetPaper)}
	clock := testbed.StudyEpoch
	encryptedBytes, totalBytes := 0, 0
	var cls entropy.Classifier
	train := func(exp *testbed.Experiment) {
		wan := testbed.WANView(lab, exp) // the ISP's vantage point
		ds.Features = append(ds.Features, features.Vector(wan, features.SetPaper))
		ds.Labels = append(ds.Labels, exp.Activity)
		clock = exp.End.Add(15 * time.Second)
		for _, f := range netx.AssembleFlows(wan) {
			v := cls.Classify(f, entropy.PaperThresholds)
			totalBytes += f.TotalWireBytes()
			if v.Class == entropy.ClassEncrypted {
				encryptedBytes += f.TotalWireBytes()
			}
		}
	}
	for rep := 0; rep < 5; rep++ {
		train(lab.RunPower(slot, false, clock, rep))
	}
	for ai := range slot.Inst.Profile.Activities {
		act := &slot.Inst.Profile.Activities[ai]
		for _, m := range act.Methods {
			for rep := 0; rep < 12; rep++ {
				train(lab.RunInteraction(slot, act, m, false, clock, rep))
			}
		}
	}
	fmt.Printf("  %d labelled captures; %.0f%% of observed bytes are encrypted\n",
		ds.NumExamples(), 100*float64(encryptedBytes)/float64(totalBytes))

	forest := ml.TrainForest(ds, ml.ForestConfig{NumTrees: 25, Seed: 7})

	// Phase 2: the observer sees fresh, unlabelled traffic.
	fmt.Println("\nNow inferring fresh, unlabelled traffic (reps the model never saw):")
	fmt.Printf("  %-16s %-16s %s\n", "ground truth", "inferred", "correct?")
	correct, total := 0, 0
	for rep := 100; rep < 110; rep++ {
		for ai := range slot.Inst.Profile.Activities {
			act := &slot.Inst.Profile.Activities[ai]
			exp := lab.RunInteraction(slot, act, act.Methods[0], false, clock, rep)
			clock = exp.End.Add(15 * time.Second)
			got := forest.Predict(features.Vector(testbed.WANView(lab, exp), features.SetPaper))
			ok := "no"
			if got == exp.Activity {
				ok = "yes"
				correct++
			}
			total++
			fmt.Printf("  %-16s %-16s %s\n", exp.Activity, got, ok)
		}
	}
	fmt.Printf("\nEavesdropper accuracy on unseen interactions: %d/%d (%.0f%%)\n",
		correct, total, 100*float64(correct)/float64(total))
	fmt.Println("Encryption hides *content*, not *behaviour* (§6.4).")
}
