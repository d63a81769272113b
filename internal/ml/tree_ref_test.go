package ml

import (
	"math/rand"
	"sort"
)

// This file keeps the original map-keyed CART grower as the oracle for
// the index-coded one in tree.go: every vote count is a map from label to
// count, every candidate threshold recomputes Gini by iterating those
// maps, and nodes are split by appending into fresh slices. The
// differential tests require both growers to build the same tree, node by
// node.

// refNode is one node of a reference tree; leaves have feature == -1.
type refNode struct {
	feature   int
	threshold float64
	left      *refNode
	right     *refNode
	class     string
	votes     map[string]int
}

// refTrainTree fits a CART tree on d exactly as the map-keyed grower did.
func refTrainTree(d *Dataset, cfg TreeConfig, rng *rand.Rand) *refNode {
	if cfg.MinSamplesSplit < 2 {
		cfg.MinSamplesSplit = 2
	}
	idx := make([]int, d.NumExamples())
	for i := range idx {
		idx[i] = i
	}
	return refGrow(d, idx, cfg, rng, 0)
}

func refGrow(d *Dataset, idx []int, cfg TreeConfig, rng *rand.Rand, depth int) *refNode {
	votes := refCountVotes(d, idx)
	if len(votes) == 1 ||
		len(idx) < cfg.MinSamplesSplit ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) {
		return refLeaf(votes)
	}
	feat, thr, gain := refBestSplit(d, idx, cfg, rng)
	if feat < 0 || gain <= cfg.MinImpurityDecrease {
		return refLeaf(votes)
	}
	var left, right []int
	for _, i := range idx {
		if d.Features[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return refLeaf(votes)
	}
	return &refNode{
		feature:   feat,
		threshold: thr,
		left:      refGrow(d, left, cfg, rng, depth+1),
		right:     refGrow(d, right, cfg, rng, depth+1),
	}
}

func refLeaf(votes map[string]int) *refNode {
	best, bestN := "", -1
	// Deterministic tie-break by label order.
	keys := make([]string, 0, len(votes))
	for k := range votes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if votes[k] > bestN {
			best, bestN = k, votes[k]
		}
	}
	return &refNode{feature: -1, class: best, votes: votes}
}

func refCountVotes(d *Dataset, idx []int) map[string]int {
	votes := make(map[string]int)
	for _, i := range idx {
		votes[d.Labels[i]]++
	}
	return votes
}

func refGini(votes map[string]int, total int) float64 {
	if total == 0 {
		return 0
	}
	var sumSq int64
	for _, c := range votes {
		sumSq += int64(c) * int64(c)
	}
	t := int64(total)
	return 1 - float64(sumSq)/float64(t*t)
}

func refBestSplit(d *Dataset, idx []int, cfg TreeConfig, rng *rand.Rand) (int, float64, float64) {
	nf := d.NumFeatures()
	if nf == 0 {
		return -1, 0, 0
	}
	features := make([]int, nf)
	for i := range features {
		features[i] = i
	}
	if cfg.FeatureSubset > 0 && cfg.FeatureSubset < nf && rng != nil {
		rng.Shuffle(nf, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:cfg.FeatureSubset]
		sort.Ints(features) // determinism of tie-breaks
	}

	parentVotes := refCountVotes(d, idx)
	parentGini := refGini(parentVotes, len(idx))
	bestFeat, bestThr, bestGain := -1, 0.0, 0.0

	type valLabel struct {
		v     float64
		label string
	}
	vl := make([]valLabel, len(idx))

	for _, f := range features {
		for i, j := range idx {
			vl[i] = valLabel{d.Features[j][f], d.Labels[j]}
		}
		sort.Slice(vl, func(a, b int) bool { return vl[a].v < vl[b].v })

		leftVotes := make(map[string]int)
		rightVotes := make(map[string]int)
		for _, e := range vl {
			rightVotes[e.label]++
		}
		nLeft := 0
		nTotal := len(vl)
		for i := 0; i < nTotal-1; i++ {
			leftVotes[vl[i].label]++
			rightVotes[vl[i].label]--
			if rightVotes[vl[i].label] == 0 {
				delete(rightVotes, vl[i].label)
			}
			nLeft++
			if vl[i].v == vl[i+1].v {
				continue // can't split between equal values
			}
			nRight := nTotal - nLeft
			w := float64(nLeft)/float64(nTotal)*refGini(leftVotes, nLeft) +
				float64(nRight)/float64(nTotal)*refGini(rightVotes, nRight)
			gain := parentGini - w
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = (vl[i].v + vl[i+1].v) / 2
			}
		}
	}
	return bestFeat, bestThr, bestGain
}
