package entropy

import (
	"math"
	"math/rand"
	"testing"
)

func close(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Every member of the family must agree on the two analytic anchor
// points: a single repeated symbol scores 0, the uniform byte
// distribution scores 1.
func TestMetricsExtremes(t *testing.T) {
	mono := make([]byte, 4096)
	for i := range mono {
		mono[i] = 0x41
	}
	ms := MeasureMetrics(mono)
	for _, m := range []Metric{MetricShannon, MetricRenyiHalf, MetricRenyi2, MetricTsallis2} {
		if v := ms.Get(m); !close(v, 0) {
			t.Errorf("%v of constant payload = %v, want 0", m, v)
		}
	}

	uniform := make([]byte, 256*16)
	for i := range uniform {
		uniform[i] = byte(i)
	}
	ms = MeasureMetrics(uniform)
	for _, m := range []Metric{MetricShannon, MetricRenyiHalf, MetricRenyi2, MetricTsallis2} {
		if v := ms.Get(m); !close(v, 1) {
			t.Errorf("%v of uniform payload = %v, want 1", m, v)
		}
	}

	if got := MeasureMetrics(nil); got != (Metrics{}) {
		t.Errorf("empty payload metrics = %+v, want zero", got)
	}
}

// The generalized orders collapse to Shannon at their singular points
// (α→1 for Rényi, q→1 for Tsallis), and the explicit-order helpers must
// match the family-at-once computation at the fixed orders.
func TestMetricsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, 2000)
	for i := range payload {
		payload[i] = byte(rng.Intn(200)) // skewed: not all symbols present
	}

	if got, want := Renyi(payload, 1), Shannon(payload); !close(got, want) {
		t.Errorf("Renyi(α=1) = %v, Shannon = %v", got, want)
	}
	if got, want := Tsallis(payload, 1), Shannon(payload); !close(got, want) {
		t.Errorf("Tsallis(q=1) = %v, Shannon = %v", got, want)
	}
	// Continuity at the singular point: orders near 1 approach Shannon.
	if got, want := Renyi(payload, 1.0001), Shannon(payload); math.Abs(got-want) > 1e-3 {
		t.Errorf("Renyi(α→1) = %v, Shannon = %v", got, want)
	}

	ms := MeasureMetrics(payload)
	if got := Renyi(payload, 0.5); !close(got, ms.RenyiHalf) {
		t.Errorf("Renyi(0.5) = %v, Metrics.RenyiHalf = %v", got, ms.RenyiHalf)
	}
	if got := Renyi(payload, 2); !close(got, ms.Renyi2) {
		t.Errorf("Renyi(2) = %v, Metrics.Renyi2 = %v", got, ms.Renyi2)
	}
	if got := Tsallis(payload, 2); !close(got, ms.Tsallis2) {
		t.Errorf("Tsallis(2) = %v, Metrics.Tsallis2 = %v", got, ms.Tsallis2)
	}
	if got, want := ms.Shannon, Shannon(payload); !close(got, want) {
		t.Errorf("Metrics.Shannon = %v, Shannon = %v", got, want)
	}

	// Rényi entropy is non-increasing in α, so the order-0.5 point
	// dominates Shannon which dominates the collision entropy.
	if !(ms.RenyiHalf >= ms.Shannon-1e-12 && ms.Shannon >= ms.Renyi2-1e-12) {
		t.Errorf("Rényi monotonicity violated: α=0.5 %v, α=1 %v, α=2 %v",
			ms.RenyiHalf, ms.Shannon, ms.Renyi2)
	}
}

// MeasureMetrics2 is the zero-concatenation form; it must equal the
// family over the actual concatenation.
func TestMeasureMetrics2MatchesConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	up := make([]byte, 777)
	down := make([]byte, 1234)
	for i := range up {
		up[i] = byte(rng.Intn(256))
	}
	for i := range down {
		down[i] = byte(rng.Intn(256))
	}
	joined := append(append([]byte(nil), up...), down...)
	if got, want := MeasureMetrics2(up, down), MeasureMetrics(joined); got != want {
		t.Errorf("MeasureMetrics2 = %+v, concat = %+v", got, want)
	}
	if got, want := MeasureMetrics2(up, nil), MeasureMetrics(up); got != want {
		t.Errorf("MeasureMetrics2(up, nil) = %+v, MeasureMetrics(up) = %+v", got, want)
	}
}

func TestMetricString(t *testing.T) {
	cases := map[Metric]string{
		MetricShannon:   "shannon",
		MetricRenyiHalf: "renyi0.5",
		MetricRenyi2:    "renyi2",
		MetricTsallis2:  "tsallis2",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Metric(%d).String() = %q, want %q", m, got, want)
		}
	}
}

// BenchmarkEntropyMetrics measures the shared-histogram family pass on a
// classifier-sized payload (two 512-byte flow heads).
func BenchmarkEntropyMetrics(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	up := make([]byte, 512)
	down := make([]byte, 512)
	for i := range up {
		up[i] = byte(rng.Intn(256))
	}
	for i := range down {
		down[i] = byte(rng.Intn(256))
	}
	b.SetBytes(int64(len(up) + len(down)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMetrics = MeasureMetrics2(up, down)
	}
}

var sinkMetrics Metrics
