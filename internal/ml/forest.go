package ml

import (
	"math"
	"math/rand"
	"sort"

	"github.com/neu-sns/intl-iot-go/internal/par"
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	// NumTrees is the ensemble size (default 50).
	NumTrees int
	// Tree configures individual trees; FeatureSubset 0 defaults to
	// sqrt(numFeatures), the standard heuristic for classification.
	Tree TreeConfig
	// Seed drives bootstrap sampling and feature subsampling.
	Seed int64
	// Workers bounds tree-growing parallelism: 0 means GOMAXPROCS, 1 is
	// serial. The trained forest is bit-identical for every worker count:
	// all bootstrap index sets and per-tree seeds are drawn sequentially
	// from Seed before any tree grows, and finished trees are placed by
	// index.
	Workers int
}

// DefaultForestConfig matches the scale the paper's classifiers used.
var DefaultForestConfig = ForestConfig{
	NumTrees: 50,
	Tree:     TreeConfig{MaxDepth: 24, MinSamplesSplit: 2},
}

// Forest is a trained random-forest classifier.
type Forest struct {
	trees []*Tree
	// classes holds the training set's class labels in sorted order;
	// classIdx inverts it. Predict votes into a slice indexed by this
	// table instead of a per-call map.
	classes  []string
	classIdx map[string]int
}

// TrainForest fits a bagged forest on d.
func TrainForest(d *Dataset, cfg ForestConfig) *Forest {
	if cfg.NumTrees <= 0 {
		cfg.NumTrees = DefaultForestConfig.NumTrees
	}
	tcfg := cfg.Tree
	if tcfg.MaxDepth == 0 && tcfg.MinSamplesSplit == 0 {
		tcfg = DefaultForestConfig.Tree
	}
	if tcfg.FeatureSubset == 0 {
		tcfg.FeatureSubset = int(math.Sqrt(float64(d.NumFeatures())) + 0.5)
		if tcfg.FeatureSubset < 1 {
			tcfg.FeatureSubset = 1
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	classes := append([]string(nil), d.Classes()...)
	sort.Strings(classes)
	f := &Forest{
		trees:    make([]*Tree, cfg.NumTrees),
		classes:  classes,
		classIdx: make(map[string]int, len(classes)),
	}
	for i, c := range classes {
		f.classIdx[c] = i
	}
	n := d.NumExamples()
	// Pre-draw every random decision in the exact order the serial
	// trainer consumed them — bootstrap indices then the tree's seed, per
	// tree — so the ensemble is bit-identical for any worker count.
	boots := make([][]int, cfg.NumTrees)
	seeds := make([]int64, cfg.NumTrees)
	for t := range boots {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		boots[t] = idx
		seeds[t] = rng.Int63()
	}
	par.For(cfg.NumTrees, par.Workers(cfg.Workers), func(t int) {
		treeRng := rand.New(rand.NewSource(seeds[t]))
		f.trees[t] = TrainTree(d.Subset(boots[t]), tcfg, treeRng)
	})
	return f
}

// NumTrees is the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// predictStackClasses bounds the vote buffer Predict keeps on the stack;
// forests over more classes fall back to a heap slice per call.
const predictStackClasses = 64

// Predict returns the majority-vote class for x; ties break toward the
// lexicographically smallest class. It allocates nothing for forests up
// to predictStackClasses classes and is safe for concurrent use.
func (f *Forest) Predict(x []float64) string {
	label, _ := f.PredictTop(x)
	return label
}

// PredictTop returns the majority-vote class and its vote share (votes
// divided by ensemble size), with the same tie-break as Predict. It is
// the allocation-free replacement for argmax(PredictProba(x)).
func (f *Forest) PredictTop(x []float64) (string, float64) {
	if len(f.trees) == 0 || len(f.classes) == 0 {
		return "", 0
	}
	var stack [predictStackClasses]int
	var votes []int
	if len(f.classes) <= len(stack) {
		votes = stack[:len(f.classes)]
	} else {
		votes = make([]int, len(f.classes))
	}
	for _, t := range f.trees {
		votes[f.classIdx[t.Predict(x)]]++
	}
	best := 0
	for i := 1; i < len(votes); i++ {
		if votes[i] > votes[best] {
			best = i
		}
	}
	return f.classes[best], float64(votes[best]) / float64(len(f.trees))
}

// PredictProba returns the per-class vote share for x.
func (f *Forest) PredictProba(x []float64) map[string]float64 {
	votes := make(map[string]float64)
	for _, t := range f.trees {
		votes[t.Predict(x)]++
	}
	for k := range votes {
		votes[k] /= float64(len(f.trees))
	}
	return votes
}
