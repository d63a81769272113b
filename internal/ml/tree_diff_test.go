package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameTree reports the first node where the index-coded tree n and the
// reference tree r differ in feature, threshold bits or class.
func sameTree(n *node, r *refNode, path string) error {
	if (n == nil) != (r == nil) {
		return fmt.Errorf("%s: nil mismatch (got %v, want %v)", path, n == nil, r == nil)
	}
	if n == nil {
		return nil
	}
	if n.feature != r.feature {
		return fmt.Errorf("%s: feature %d, want %d", path, n.feature, r.feature)
	}
	if math.Float64bits(n.threshold) != math.Float64bits(r.threshold) {
		return fmt.Errorf("%s: threshold %v, want %v", path, n.threshold, r.threshold)
	}
	if n.class != r.class {
		return fmt.Errorf("%s: class %q, want %q", path, n.class, r.class)
	}
	if n.feature < 0 {
		return nil
	}
	if err := sameTree(n.left, r.left, path+"L"); err != nil {
		return err
	}
	return sameTree(n.right, r.right, path+"R")
}

// checkTreeMatchesReference grows d with both growers from the same seed
// and requires identical trees and identical RNG state afterwards.
func checkTreeMatchesReference(t *testing.T, d *Dataset, cfg TreeConfig, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	refRng := rand.New(rand.NewSource(seed))
	got := TrainTree(d, cfg, rng)
	want := refTrainTree(d, cfg, refRng)
	if err := sameTree(got.root, want, "root"); err != nil {
		t.Fatalf("cfg %+v: %v", cfg, err)
	}
	if a, b := rng.Int63(), refRng.Int63(); a != b {
		t.Fatalf("cfg %+v: RNG diverged after training (%d vs %d)", cfg, a, b)
	}
}

// quantized builds n rows whose values take only levels distinct values
// per feature, so most thresholds sit among duplicated values.
func quantized(n, features, classes, levels int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < n; i++ {
		row := make([]float64, features)
		c := rng.Intn(classes)
		for j := range row {
			row[j] = float64(rng.Intn(levels) + c%3)
		}
		d.Features = append(d.Features, row)
		d.Labels = append(d.Labels, fmt.Sprintf("c%03d", c))
	}
	return d
}

func TestTreeMatchesReference(t *testing.T) {
	configs := []TreeConfig{
		DefaultTreeConfig,
		{MaxDepth: 3, MinSamplesSplit: 2},
		{MinSamplesSplit: 5},
		{MaxDepth: 24, MinSamplesSplit: 2, FeatureSubset: 2},
		{MaxDepth: 24, MinSamplesSplit: 2, FeatureSubset: 1, MinImpurityDecrease: 0.01},
		{MaxDepth: 24, MinSamplesSplit: 2, MinImpurityDecrease: 0.05},
	}
	single := &Dataset{
		Features: [][]float64{{1, 2}, {3, 4}, {5, 6}},
		Labels:   []string{"only", "only", "only"},
	}
	allEqual := &Dataset{
		Features: [][]float64{{5, 5}, {5, 5}, {5, 5}, {5, 5}, {5, 5}},
		Labels:   []string{"b", "a", "c", "a", "b"},
	}
	datasets := map[string]*Dataset{
		"empty":        {},
		"single-class": single,
		"all-equal":    allEqual,
		"one-row":      {Features: [][]float64{{1}}, Labels: []string{"x"}},
		"no-features":  {Features: [][]float64{{}, {}}, Labels: []string{"x", "y"}},
		"separable":    synthDataset(200, 4, 6, 3),
		"overlapping":  synthDataset(200, 4, 1, 4),
		"multiclass":   synthMulticlass(300, 6, 6, 7),
		"duplicated":   quantized(300, 4, 5, 3, 8),
		"70-classes":   quantized(500, 5, 70, 6, 9),
		"200-classes":  synthMulticlass(600, 3, 200, 10),
	}
	for name, d := range datasets {
		for i, cfg := range configs {
			t.Run(fmt.Sprintf("%s/cfg%d", name, i), func(t *testing.T) {
				checkTreeMatchesReference(t, d, cfg, int64(i+1))
			})
		}
	}
}

// TestTreeEmptyDatasetLeaf pins the empty dataset's tree: one leaf of
// class "".
func TestTreeEmptyDatasetLeaf(t *testing.T) {
	tree := TrainTree(&Dataset{}, DefaultTreeConfig, nil)
	if tree.NodeCount() != 1 || tree.Predict(nil) != "" {
		t.Errorf("empty dataset: %d nodes, class %q", tree.NodeCount(), tree.Predict(nil))
	}
}

// fuzzDataset decodes a dataset and tree config from raw bytes: a
// five-byte header (features, classes, depth, subset, impurity), then
// one row per features+1 bytes. Feature bytes map onto 16 levels plus
// ±Inf and NaN, so duplicates and non-finite values are common.
func fuzzDataset(data []byte) (*Dataset, TreeConfig) {
	if len(data) < 5 {
		return &Dataset{}, DefaultTreeConfig
	}
	nf := 1 + int(data[0]%5)
	k := 1 + int(data[1]%80)
	cfg := TreeConfig{
		MaxDepth:            int(data[2] % 8),
		MinSamplesSplit:     int(data[3]%4) + 1,
		FeatureSubset:       int(data[3]/4) % (nf + 1),
		MinImpurityDecrease: float64(data[4]%4) * 0.02,
	}
	d := &Dataset{}
	for rest := data[5:]; len(rest) >= nf+1; rest = rest[nf+1:] {
		row := make([]float64, nf)
		for j := range row {
			switch b := rest[j] % 19; b {
			case 16:
				row[j] = math.Inf(1)
			case 17:
				row[j] = math.Inf(-1)
			case 18:
				row[j] = math.NaN()
			default:
				row[j] = float64(b) / 4
			}
		}
		d.Features = append(d.Features, row)
		d.Labels = append(d.Labels, fmt.Sprintf("l%02d", int(rest[nf])%k))
	}
	return d, cfg
}

func FuzzTreeMatchesReference(f *testing.F) {
	f.Add([]byte{1, 2, 0, 1, 0, 1, 0, 2, 1, 3, 0, 4, 1}, int64(1))
	f.Add([]byte{4, 79, 3, 9, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, int64(2))
	f.Add([]byte{2, 3, 7, 6, 2, 18, 18, 0, 18, 1, 1, 5, 5, 2, 16, 17, 0}, int64(3))
	f.Add([]byte{0, 0, 0, 0, 0}, int64(4))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		d, cfg := fuzzDataset(data)
		checkTreeMatchesReference(t, d, cfg, seed)
	})
}
