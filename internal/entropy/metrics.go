package entropy

import "math"

// The multi-metric entropy family (§5.1 extension): alongside the
// paper's normalized Shannon entropy, the Rényi spectrum at α ∈ {0.5, 2}
// and the Tsallis entropy at q = 2. The generalized orders weight the
// byte histogram differently — α < 1 emphasizes rare symbols, α > 1
// frequent ones — so together they separate ciphertext from structured
// high-entropy encodings (compressed media, base64) more sharply than
// any single order. All metrics are normalized to [0, 1], where 1 is the
// uniform byte distribution, and all are computed from one shared
// 256-bin histogram pass.

// Metric selects which entropy functional drives threshold
// classification. MetricShannon — the zero value — is the §5 default the
// paper's 0.4/0.8 thresholds were validated against; the alternatives
// exist for sensitivity sweeps, not as drop-in defaults.
type Metric int

const (
	MetricShannon Metric = iota
	MetricRenyiHalf
	MetricRenyi2
	MetricTsallis2
)

// String implements fmt.Stringer with the report-column spellings.
func (m Metric) String() string {
	switch m {
	case MetricRenyiHalf:
		return "renyi0.5"
	case MetricRenyi2:
		return "renyi2"
	case MetricTsallis2:
		return "tsallis2"
	default:
		return "shannon"
	}
}

// Metrics carries one payload's full entropy family.
type Metrics struct {
	Shannon   float64 // order-1 limit, normalized by 8 bits
	RenyiHalf float64 // Rényi α=0.5 (Hartley-leaning), normalized by 8 bits
	Renyi2    float64 // Rényi α=2 (collision entropy), normalized by 8 bits
	Tsallis2  float64 // Tsallis q=2, normalized by its 256-symbol maximum
}

// Get selects one metric by name.
func (ms Metrics) Get(m Metric) float64 {
	switch m {
	case MetricRenyiHalf:
		return ms.RenyiHalf
	case MetricRenyi2:
		return ms.Renyi2
	case MetricTsallis2:
		return ms.Tsallis2
	default:
		return ms.Shannon
	}
}

// histogram counts bytes across the given slices; n is the total count.
func histogram(counts *[256]int, parts ...[]byte) (n int) {
	for _, b := range parts {
		for _, c := range b {
			counts[c]++
		}
		n += len(b)
	}
	return n
}

// metricsFromCounts evaluates the whole family over one histogram.
func metricsFromCounts(counts *[256]int, n int) Metrics {
	if n == 0 {
		return Metrics{}
	}
	fn := float64(n)
	var shannon, sumHalf, sum2 float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / fn
		shannon -= p * math.Log2(p)
		sumHalf += math.Sqrt(p)
		sum2 += p * p
	}
	// H_α = log2(Σ p^α) / (1−α); collision entropy is the α=2 point.
	// Tsallis S_q = (1 − Σ p^q)/(q−1), normalized by its maximum
	// (1 − 256^(1−q))/(q−1) so the uniform distribution scores 1.
	return Metrics{
		Shannon:   shannon / 8,
		RenyiHalf: 2 * math.Log2(sumHalf) / 8,
		Renyi2:    -math.Log2(sum2) / 8,
		Tsallis2:  (1 - sum2) / (1 - 1.0/256),
	}
}

// MeasureMetrics computes the family over b.
func MeasureMetrics(b []byte) Metrics {
	var counts [256]int
	return metricsFromCounts(&counts, histogram(&counts, b))
}

// MeasureMetrics2 computes the family over the concatenation of two
// payload slices, such as a flow's (up, down) head payloads, without
// concatenating them.
func MeasureMetrics2(a, b []byte) Metrics {
	var counts [256]int
	return metricsFromCounts(&counts, histogram(&counts, a, b))
}

// Renyi computes the normalized Rényi entropy of order alpha over b.
// alpha = 1 (the singular point of the formula) returns the Shannon
// limit; alpha must be positive.
func Renyi(b []byte, alpha float64) float64 {
	if len(b) == 0 {
		return 0
	}
	if alpha == 1 {
		return Shannon(b)
	}
	var counts [256]int
	n := histogram(&counts, b)
	var sum float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		sum += math.Pow(float64(c)/float64(n), alpha)
	}
	return math.Log2(sum) / (1 - alpha) / 8
}

// Tsallis computes the normalized Tsallis entropy of order q over b;
// q = 1 returns the Shannon limit.
func Tsallis(b []byte, q float64) float64 {
	if len(b) == 0 {
		return 0
	}
	if q == 1 {
		return Shannon(b)
	}
	var counts [256]int
	n := histogram(&counts, b)
	var sum float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		sum += math.Pow(float64(c)/float64(n), q)
	}
	return ((1 - sum) / (q - 1)) / ((1 - math.Pow(256, 1-q)) / (q - 1))
}
