package ml

import (
	"math/rand"
	"slices"
	"sort"
)

// TreeConfig controls decision-tree induction.
type TreeConfig struct {
	// MaxDepth limits the tree depth; 0 means unlimited.
	MaxDepth int
	// MinSamplesSplit is the minimum node size eligible for splitting.
	MinSamplesSplit int
	// MinImpurityDecrease is the minimum Gini decrease for a split.
	MinImpurityDecrease float64
	// FeatureSubset, if > 0, samples that many candidate features per
	// split (the random-forest "mtry" parameter). 0 considers all.
	FeatureSubset int
}

// DefaultTreeConfig mirrors common CART defaults.
var DefaultTreeConfig = TreeConfig{MaxDepth: 24, MinSamplesSplit: 2}

// node is one tree node. Internal nodes send x left when
// x[feature] <= threshold; leaves have feature == -1 and carry only the
// majority class of the training rows that reached them.
type node struct {
	feature   int
	threshold float64
	left      *node
	right     *node
	class     string
}

// Tree is a trained CART classifier.
type Tree struct {
	root *node
}

// TrainTree fits a CART tree on d. The rng drives feature subsampling
// when cfg.FeatureSubset > 0; it may be nil when FeatureSubset == 0.
//
// Labels are coded once as indexes into the sorted class list, so every
// vote count is an integer slice and each candidate threshold updates
// the Gini sums in O(1). Splits maximize the Gini decrease, ties keep
// the first candidate in (feature, threshold) order, and a leaf takes
// its most frequent class, ties going to the lexicographically smallest
// label; an empty dataset yields a single leaf of class "".
func TrainTree(d *Dataset, cfg TreeConfig, rng *rand.Rand) *Tree {
	if cfg.MinSamplesSplit < 2 {
		cfg.MinSamplesSplit = 2
	}
	n := d.NumExamples()
	g := &grower{d: d, cfg: cfg, rng: rng}
	g.classes, g.codes = codeLabels(d.Labels)
	k := len(g.classes)
	g.counts = make([]int, k)
	g.left = make([]int, k)
	g.right = make([]int, k)
	g.vals = make([]valCode, n)
	g.spill = make([]int, n)
	g.features = make([]int, d.NumFeatures())
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return &Tree{root: g.grow(idx, 0)}
}

// codeLabels returns the sorted distinct labels and each label's index
// in that list.
func codeLabels(labels []string) ([]string, []int) {
	index := make(map[string]int)
	var classes []string
	for _, l := range labels {
		if _, ok := index[l]; !ok {
			index[l] = 0
			classes = append(classes, l)
		}
	}
	sort.Strings(classes)
	for i, c := range classes {
		index[c] = i
	}
	codes := make([]int, len(labels))
	for i, l := range labels {
		codes[i] = index[l]
	}
	return classes, codes
}

// grower holds one tree's training state. Every buffer is sized once
// per tree and reused by each node.
type grower struct {
	d   *Dataset
	cfg TreeConfig
	rng *rand.Rand

	classes []string // sorted distinct labels
	codes   []int    // class index of each example

	counts      []int     // per-class votes of the node being grown
	left, right []int     // per-class votes either side of a threshold
	vals        []valCode // one feature's (value, class) pairs
	spill       []int     // right-hand rows while partitioning
	features    []int     // candidate features of one split
}

type valCode struct {
	v float64
	c int
}

// byValue orders by feature value alone: gains are evaluated only
// between distinct values, so the order among equal values cannot change
// any gain.
func byValue(a, b valCode) int {
	if a.v < b.v {
		return -1
	}
	if a.v > b.v {
		return 1
	}
	return 0
}

// grow builds the subtree over the rows idx, which it may reorder.
func (g *grower) grow(idx []int, depth int) *node {
	counts := g.counts
	clear(counts)
	for _, i := range idx {
		counts[g.codes[i]]++
	}
	best, distinct := -1, 0
	var sumSq int64
	for c, n := range counts {
		if n == 0 {
			continue
		}
		distinct++
		sumSq += int64(n) * int64(n)
		if best < 0 || n > counts[best] {
			best = c
		}
	}
	leaf := &node{feature: -1}
	if best >= 0 {
		leaf.class = g.classes[best]
	}
	if distinct == 1 ||
		len(idx) < g.cfg.MinSamplesSplit ||
		(g.cfg.MaxDepth > 0 && depth >= g.cfg.MaxDepth) {
		return leaf
	}
	feat, thr, gain := g.bestSplit(idx, sumSq)
	if feat < 0 || gain <= g.cfg.MinImpurityDecrease {
		return leaf
	}
	nl := g.partition(idx, feat, thr)
	if nl == 0 || nl == len(idx) {
		return leaf
	}
	return &node{
		feature:   feat,
		threshold: thr,
		left:      g.grow(idx[:nl], depth+1),
		right:     g.grow(idx[nl:], depth+1),
	}
}

// partition stably moves the rows with x[feat] <= thr to the front of
// idx and returns their count.
func (g *grower) partition(idx []int, feat int, thr float64) int {
	nl, nr := 0, 0
	for _, i := range idx {
		if g.d.Features[i][feat] <= thr {
			idx[nl] = i
			nl++
		} else {
			g.spill[nr] = i
			nr++
		}
	}
	copy(idx[nl:], g.spill[:nr])
	return nl
}

// gini computes the Gini impurity of a node from the sum of its squared
// class counts. The sum is an integer, so it does not depend on the order
// counts were added in.
func gini(sumSq int64, total int) float64 {
	if total == 0 {
		return 0
	}
	t := int64(total)
	return 1 - float64(sumSq)/float64(t*t)
}

// bestSplit finds the (feature, threshold) pair with maximum Gini
// decrease over the rows idx, whose per-class votes are in g.counts with
// squared sum sumSq. Thresholds are midpoints between consecutive
// distinct sorted feature values. Moving one row of class c from the
// right side to the left adds 2·left[c]+1 to the left sum of squares and
// removes 2·right[c]−1 from the right one.
func (g *grower) bestSplit(idx []int, sumSq int64) (int, float64, float64) {
	nf := g.d.NumFeatures()
	if nf == 0 {
		return -1, 0, 0
	}
	features := g.features[:nf]
	for i := range features {
		features[i] = i
	}
	if g.cfg.FeatureSubset > 0 && g.cfg.FeatureSubset < nf && g.rng != nil {
		g.rng.Shuffle(nf, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:g.cfg.FeatureSubset]
		sort.Ints(features) // determinism of tie-breaks
	}

	nTotal := len(idx)
	parentGini := gini(sumSq, nTotal)
	bestFeat, bestThr, bestGain := -1, 0.0, 0.0
	vals := g.vals[:nTotal]
	left, right := g.left, g.right

	for _, f := range features {
		for i, j := range idx {
			vals[i] = valCode{g.d.Features[j][f], g.codes[j]}
		}
		slices.SortFunc(vals, byValue)

		clear(left)
		copy(right, g.counts)
		sumL, sumR := int64(0), sumSq
		for i := 0; i < nTotal-1; i++ {
			c := vals[i].c
			sumL += int64(2*left[c] + 1)
			left[c]++
			sumR -= int64(2*right[c] - 1)
			right[c]--
			if vals[i].v == vals[i+1].v {
				continue // can't split between equal values
			}
			nLeft := i + 1
			nRight := nTotal - nLeft
			w := float64(nLeft)/float64(nTotal)*gini(sumL, nLeft) +
				float64(nRight)/float64(nTotal)*gini(sumR, nRight)
			gain := parentGini - w
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = (vals[i].v + vals[i+1].v) / 2
			}
		}
	}
	return bestFeat, bestThr, bestGain
}

// Predict returns the predicted class for one feature vector.
func (t *Tree) Predict(x []float64) string {
	n := t.root
	for n.feature >= 0 {
		if n.feature < len(x) && x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

// Depth returns the depth of the tree (a single leaf has depth 0).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *node) int {
	if n == nil || n.feature < 0 {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// NodeCount returns the number of nodes in the tree.
func (t *Tree) NodeCount() int { return nodeCount(t.root) }

func nodeCount(n *node) int {
	if n == nil {
		return 0
	}
	if n.feature < 0 {
		return 1
	}
	return 1 + nodeCount(n.left) + nodeCount(n.right)
}
