package intliot_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"github.com/neu-sns/intl-iot-go/internal/fleet"
	"github.com/neu-sns/intl-iot-go/internal/report"
)

// renderFleet produces the full user-visible output of a fleet run:
// every table's aligned-text rendering plus the canonical JSON
// document — the bytes that must not depend on the worker count.
func renderFleet(t *testing.T, agg *fleet.Aggregate) string {
	t.Helper()
	doc := report.FleetDocument(agg)
	var sb strings.Builder
	for _, e := range doc.Entries {
		if err := e.Table.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	if err := doc.RenderJSON(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestFleetByteIdentical is the ISSUE's root regression: the same
// 50-home fleet must render byte-identical report tables for 1, 2 and
// 5 workers.
func TestFleetByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet campaigns skipped in -short")
	}
	var want string
	for _, workers := range []int{1, 2, 5} {
		agg, err := fleet.Run(context.Background(),
			fleet.Config{Homes: 50, Seed: 7, Workers: workers}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := renderFleet(t, agg)
		if want == "" {
			want = got
			t.Logf("rendered fleet report: %d bytes", len(got))
			continue
		}
		if got != want {
			t.Errorf("workers=%d rendered different fleet tables", workers)
		}
	}
}

// fleetHeapHighWater runs a fleet and samples the forced-GC heap
// high-water at fold points, the same way the streaming-ingest memory
// guard does. It samples at the same five fractional progress points
// (every total/5 homes) for any fleet size, so fleets of different
// sizes take their maximum over equally many samples.
func fleetHeapHighWater(t *testing.T, homes int) uint64 {
	t.Helper()
	var ms runtime.MemStats
	var high uint64
	_, err := fleet.Run(context.Background(), fleet.Config{
		Homes:   homes,
		Seed:    7,
		Workers: 2,
		Progress: func(done, total int) {
			if step := max(total/5, 1); done%step != 0 && done != total {
				return
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > high {
				high = ms.HeapAlloc
			}
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return high
}

// TestFleetHeapSublinear is the ISSUE's memory guard: quadrupling the
// fleet must not remotely quadruple the heap high-water, because homes
// stream through the pipeline and fold into fixed-size sketches.
func TestFleetHeapSublinear(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet campaigns skipped in -short")
	}
	small := fleetHeapHighWater(t, 50)
	large := fleetHeapHighWater(t, 200)
	ratio := float64(large) / float64(small)
	t.Logf("heap high-water: 50 homes = %.1f MB, 200 homes = %.1f MB (ratio %.2fx)",
		float64(small)/1e6, float64(large)/1e6, ratio)
	if ratio > 2.0 {
		t.Errorf("heap high-water grew %.2fx for a 4x fleet; want well under 4x (<= 2.0x)", ratio)
	}
}
