package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// lastLine parses the result line benchmark printed last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// TestEveryWorkloadEmitsEveryMetric runs every workload — the gated ones
// and fleet — at the smallest sizes, untraced and traced, and checks
// the result line carries exactly the metrics BENCHMARK.json names,
// with their units.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workload {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the harness", w.Name)
		}
	}
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			var out bytes.Buffer
			if err := benchmark(&out, name, 3, 0, traced, t.TempDir(), tinySizes); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res := lastLine(t, out.String())
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: missing %s", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m.Name, got.Value)
				}
				if !strings.Contains(out.String(), "metric "+m.Name+" ") {
					t.Errorf("%s traced=%v: no printed line for %s", name, traced, m.Name)
				}
			}
			if traced && res.Metrics["ingest.decode_passes"].Value != 1 {
				t.Errorf("%s: ingest.decode_passes = %v, want 1", name, res.Metrics["ingest.decode_passes"].Value)
			}
		}
	}
}

// perturbed hands out a reference with one byte changed.
type perturbed struct{ workload }

func (p perturbed) reference() []byte {
	ref := append([]byte(nil), p.workload.reference()...)
	ref[len(ref)/2] ^= 1
	return ref
}

// TestPerturbedReferenceFails checks the correctness gate: a reference
// that differs by one byte fails both the timed and the traced run.
func TestPerturbedReferenceFails(t *testing.T) {
	p := params{seed: 5, workers: 2, dir: t.TempDir(), size: tinySizes}
	w := &fleetWL{}
	if err := w.prepare(p); err != nil {
		t.Fatal(err)
	}
	if _, err := measure(w, 0, 1); err != nil {
		t.Fatalf("unperturbed reference: %v", err)
	}
	bad := perturbed{w}
	if _, err := measure(bad, 0, 1); !errors.Is(err, errMismatch) {
		t.Errorf("timed run with a perturbed reference: err = %v, want %v", err, errMismatch)
	}
	base := &e2e{wall: []float64{1}, cpu: []float64{1}}
	if _, err := traceLayers("fleet", bad, p, base); !errors.Is(err, errMismatch) {
		t.Errorf("traced run with a perturbed reference: err = %v, want %v", err, errMismatch)
	}
}
