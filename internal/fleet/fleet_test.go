package fleet

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// fingerprint serializes an aggregate deterministically for
// byte-identity comparisons: sketch bytes plus sorted renderings of
// every exact counter.
func fingerprint(t *testing.T, a *Aggregate) string {
	t.Helper()
	out := fmt.Sprintf("homes=%d devices=%d exps=%d pkts=%d bytes=%d retrans=%d\n",
		a.Homes, a.Devices, a.Experiments, a.Packets, a.WireBytes, a.RetransDropped)
	sortedInts := func(m map[string]int) string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s := ""
		for _, k := range keys {
			s += fmt.Sprintf("%s=%d ", k, m[k])
		}
		return s
	}
	out += "regions: " + sortedInts(a.RegionHomes) + "\n"
	out += "faults: " + sortedInts(a.FaultHomes) + "\n"
	out += "defenses: " + sortedInts(a.ReshapeHomes) + "\n"
	out += "pii: " + sortedInts(a.PIIKinds) + "\n"
	out += fmt.Sprintf("party flows=%v bytes=%v\n",
		[]int64{a.PartyFlows[0], a.PartyFlows[1], a.PartyFlows[2]},
		[]int64{a.PartyBytes[0], a.PartyBytes[1], a.PartyBytes[2]})
	out += fmt.Sprintf("enc flows=%v bytes=%v\n", a.EncFlows, a.EncBytes)
	for _, h := range []struct {
		name string
		m    interface{ MarshalBinary() ([]byte, error) }
	}{{"fqdns", a.FQDNs}, {"slds", a.SLDs}, {"ports", a.Ports}, {"orgs", a.Orgs},
		{"sldflows", a.SLDFlows}, {"sldhomes", a.SLDHomes}} {
		b, err := h.m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprintf("%s=%x\n", h.name, b)
	}
	out += fmt.Sprintf("top=%v\n", a.TopSLDs(topSLDCap))
	return out
}

func TestPlanDeterministic(t *testing.T) {
	a, err := Plan(Config{Homes: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(Config{Homes: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed planned different fleets")
	}
	c, _ := Plan(Config{Homes: 40, Seed: 8})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds planned identical fleets")
	}
	regions := map[string]int{}
	faulted, defended := 0, 0
	for i, s := range a {
		regions[s.Region]++
		if s.FaultProfile != "" {
			faulted++
		}
		if s.ReshapeStack != "" {
			defended++
			if s.ReshapeBudget <= 0 || s.ReshapeBudget > 1 {
				t.Fatalf("home %d defense %q has budget %v out of (0, 1]", i, s.ReshapeStack, s.ReshapeBudget)
			}
		} else if s.ReshapeBudget != 0 {
			t.Fatalf("home %d undefended but budget %v", i, s.ReshapeBudget)
		}
		if len(s.Devices) < 3 || len(s.Devices) > 8 {
			t.Fatalf("home %d has %d devices, want 3–8", i, len(s.Devices))
		}
		seen := map[string]bool{}
		for _, d := range s.Devices {
			if seen[d] {
				t.Fatalf("home %d deploys %q twice", i, d)
			}
			seen[d] = true
		}
		if !s.Subnet.Addr().Is4() {
			t.Fatalf("home %d subnet %v not IPv4", i, s.Subnet)
		}
	}
	if regions["US"] == 0 || regions["GB"] == 0 {
		t.Fatalf("want homes in both regions, got %v", regions)
	}
	if faulted == 0 || faulted == len(a) {
		t.Fatalf("want a mix of clean and impaired homes, got %d/%d impaired", faulted, len(a))
	}
	if defended == 0 || defended == len(a) {
		t.Fatalf("want a mix of defended and undefended homes, got %d/%d defended", defended, len(a))
	}
	// Subnets must be disjoint.
	subnets := map[string]bool{}
	for _, s := range a {
		k := s.Subnet.String()
		if subnets[k] {
			t.Fatalf("subnet %s reused", k)
		}
		subnets[k] = true
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := Plan(Config{Homes: 0}); err == nil {
		t.Error("0 homes accepted")
	}
	if _, err := Plan(Config{Homes: MaxHomes + 1}); err == nil {
		t.Error("oversized fleet accepted")
	}
	if _, err := Plan(Config{Homes: 5, Precision: 2}); err == nil {
		t.Error("invalid precision accepted")
	}
}

// TestRunWorkerByteIdentity is the package-level half of the ISSUE's
// determinism requirement: the same fleet folded by 1, 2 and 5 workers
// must serialize byte-identically.
func TestRunWorkerByteIdentity(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 5} {
		agg, err := Run(context.Background(), Config{Homes: 12, Seed: 99, Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := fingerprint(t, agg)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d produced a different aggregate", workers)
		}
	}
}

// TestSketchWithinBounds validates the sketch estimates against the
// exact shadow sets on a small fleet — the acceptance criterion's
// error-bound check.
func TestSketchWithinBounds(t *testing.T) {
	agg, err := Run(context.Background(), Config{Homes: 15, Seed: 3, Workers: 0, TrackExact: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, est float64, exact int, sigma float64) {
		relErr := math.Abs(est-float64(exact)) / float64(exact)
		t.Logf("%s: est=%.1f exact=%d err=%.2f%%", name, est, exact, 100*relErr)
		if relErr > 3*sigma {
			t.Errorf("%s estimate %.1f vs exact %d: error %.2f%% beyond 3σ=%.2f%%",
				name, est, exact, 100*relErr, 300*sigma)
		}
	}
	check("fqdns", agg.FQDNs.Estimate(), len(agg.ExactFQDNs), agg.FQDNs.RelativeError())
	check("slds", agg.SLDs.Estimate(), len(agg.ExactSLDs), agg.SLDs.RelativeError())
	check("ports", agg.Ports.Estimate(), len(agg.ExactPorts), agg.Ports.RelativeError())
	if agg.Homes != 15 {
		t.Errorf("folded %d homes, want 15", agg.Homes)
	}
	if len(agg.TopSLDs(5)) == 0 {
		t.Error("no heavy hitters collected")
	}
	var encFlows int64
	for _, v := range agg.EncFlows {
		encFlows += v
	}
	if encFlows == 0 {
		t.Error("no flows classified")
	}
}

// TestRunCancel: a cancelled context stops the fleet promptly with
// partial results, never a deadlock, and no goroutine Run started is
// still alive when it returns.
func TestRunCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Run(ctx, Config{Homes: 100, Seed: 1, Workers: 2, Progress: func(n, total int) {
		if n == 2 {
			cancel()
		}
	}}, nil)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The third home starts when the first folds, so it is mid-synthesis
	// when the cancel lands; Run must have waited for it.
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "fleet.runHome") {
		t.Fatal("a worker was still synthesizing a home after Run returned")
	}
	// A goroutine that signalled its exit still counts until it has run
	// its last deferred call.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Fatalf("%d goroutines alive after Run returned, %d before", n, base)
	}
}

// TestAggregateMergePrecisionMismatch: aggregates built with different
// sketch parameters refuse to merge rather than silently corrupting.
func TestAggregateMergePrecisionMismatch(t *testing.T) {
	a, _ := NewAggregate(12, false)
	b, _ := NewAggregate(10, false)
	if err := a.Merge(b); err == nil {
		t.Fatal("precision mismatch merged silently")
	}
}
