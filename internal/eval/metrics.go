// Package eval implements clustering-quality metrics and timing utilities
// for StoryPivot's evaluation (paper Figure 7 reports F-measure and
// execution time per event).
//
// Story identification and alignment are clustering problems: snippets are
// grouped into stories. Quality is measured against ground truth with the
// standard clustering metrics — pairwise precision/recall/F1, B-cubed, and
// normalised mutual information — all computed from a predicted and a true
// assignment of snippet IDs to cluster labels.
package eval

import (
	"math"

	"repro/internal/event"
)

// Assignment maps each snippet to a cluster label. Predicted and truth
// assignments must cover the same snippet IDs; snippets missing from
// either side are ignored by the metrics.
type Assignment map[event.SnippetID]uint64

// PRF holds precision, recall, and their harmonic mean.
type PRF struct {
	Precision, Recall, F1 float64
}

// Pairwise computes pairwise clustering precision/recall/F1: over all
// unordered snippet pairs, a pair is positive if both elements share a
// cluster. Precision is the fraction of predicted-positive pairs that are
// true-positive; recall the fraction of true-positive pairs recovered.
//
// Counting uses the contingency table between predicted and true labels,
// which is O(n) space and O(n) time instead of O(n²) pair enumeration —
// required at the paper's corpus sizes.
func Pairwise(pred, truth Assignment) PRF {
	type key struct{ p, t uint64 }
	cont := make(map[key]int)
	predSize := make(map[uint64]int)
	truthSize := make(map[uint64]int)
	n := 0
	for id, p := range pred {
		t, ok := truth[id]
		if !ok {
			continue
		}
		cont[key{p, t}]++
		predSize[p]++
		truthSize[t]++
		n++
	}
	if n == 0 {
		return PRF{}
	}
	choose2 := func(k int) float64 { return float64(k) * float64(k-1) / 2 }
	var tp, predPairs, truthPairs float64
	for _, c := range cont {
		tp += choose2(c)
	}
	for _, c := range predSize {
		predPairs += choose2(c)
	}
	for _, c := range truthSize {
		truthPairs += choose2(c)
	}
	prf := PRF{}
	if predPairs > 0 {
		prf.Precision = tp / predPairs
	}
	if truthPairs > 0 {
		prf.Recall = tp / truthPairs
	}
	// Edge case: no positive pairs anywhere means both sides agree that
	// everything is a singleton — perfect score.
	if predPairs == 0 && truthPairs == 0 {
		return PRF{Precision: 1, Recall: 1, F1: 1}
	}
	if prf.Precision+prf.Recall > 0 {
		prf.F1 = 2 * prf.Precision * prf.Recall / (prf.Precision + prf.Recall)
	}
	return prf
}

// BCubed computes the B-cubed precision/recall/F1 (Bagga & Baldwin 1998):
// per-element precision is the fraction of the element's predicted cluster
// sharing its true label, per-element recall the fraction of its true
// cluster it is co-clustered with; both are averaged over elements.
// B-cubed penalises lumping small true stories into one big cluster more
// gracefully than pairwise, which is why both are reported.
func BCubed(pred, truth Assignment) PRF {
	type key struct{ p, t uint64 }
	cont := make(map[key]int)
	predSize := make(map[uint64]int)
	truthSize := make(map[uint64]int)
	n := 0
	for id, p := range pred {
		t, ok := truth[id]
		if !ok {
			continue
		}
		cont[key{p, t}]++
		predSize[p]++
		truthSize[t]++
		n++
	}
	if n == 0 {
		return PRF{}
	}
	var sumP, sumR float64
	for k, c := range cont {
		// Each of the c elements in this cell contributes c/|pred cluster|
		// to precision and c/|true cluster| to recall.
		sumP += float64(c) * float64(c) / float64(predSize[k.p])
		sumR += float64(c) * float64(c) / float64(truthSize[k.t])
	}
	prf := PRF{Precision: sumP / float64(n), Recall: sumR / float64(n)}
	if prf.Precision+prf.Recall > 0 {
		prf.F1 = 2 * prf.Precision * prf.Recall / (prf.Precision + prf.Recall)
	}
	return prf
}

// NMI computes normalised mutual information between the two assignments,
// in [0, 1] with 1 for identical clusterings (up to label renaming). The
// normalisation is by the arithmetic mean of the entropies.
func NMI(pred, truth Assignment) float64 {
	type key struct{ p, t uint64 }
	cont := make(map[key]int)
	predSize := make(map[uint64]int)
	truthSize := make(map[uint64]int)
	n := 0
	for id, p := range pred {
		t, ok := truth[id]
		if !ok {
			continue
		}
		cont[key{p, t}]++
		predSize[p]++
		truthSize[t]++
		n++
	}
	if n == 0 {
		return 0
	}
	fn := float64(n)
	var mi float64
	for k, c := range cont {
		pxy := float64(c) / fn
		px := float64(predSize[k.p]) / fn
		py := float64(truthSize[k.t]) / fn
		mi += pxy * math.Log(pxy/(px*py))
	}
	entropy := func(sizes map[uint64]int) float64 {
		var h float64
		for _, c := range sizes {
			p := float64(c) / fn
			h -= p * math.Log(p)
		}
		return h
	}
	hp, ht := entropy(predSize), entropy(truthSize)
	if hp == 0 && ht == 0 {
		return 1 // both trivial clusterings and identical
	}
	denom := (hp + ht) / 2
	if denom == 0 {
		return 0
	}
	v := mi / denom
	if v > 1 {
		v = 1
	}
	if v < 0 {
		v = 0
	}
	return v
}

// ARI computes the Adjusted Rand Index between the two assignments: the
// Rand index corrected for chance, in [-1, 1] with 1 for identical
// partitions and ~0 for random agreement. Reported alongside F-measure
// because pairwise F is not chance-corrected and inflates on skewed
// cluster-size distributions.
func ARI(pred, truth Assignment) float64 {
	type key struct{ p, t uint64 }
	cont := make(map[key]int)
	predSize := make(map[uint64]int)
	truthSize := make(map[uint64]int)
	n := 0
	for id, p := range pred {
		t, ok := truth[id]
		if !ok {
			continue
		}
		cont[key{p, t}]++
		predSize[p]++
		truthSize[t]++
		n++
	}
	if n < 2 {
		return 0
	}
	choose2 := func(k int) float64 { return float64(k) * float64(k-1) / 2 }
	var sumCells, sumPred, sumTruth float64
	for _, c := range cont {
		sumCells += choose2(c)
	}
	for _, c := range predSize {
		sumPred += choose2(c)
	}
	for _, c := range truthSize {
		sumTruth += choose2(c)
	}
	total := choose2(n)
	expected := sumPred * sumTruth / total
	maxIdx := (sumPred + sumTruth) / 2
	if maxIdx == expected {
		// Degenerate: both partitions trivial (all-singleton or
		// all-one-cluster on both sides) — identical by construction.
		return 1
	}
	return (sumCells - expected) / (maxIdx - expected)
}

// FromIntegrated converts integrated stories into an Assignment over all
// member snippets, using integrated IDs as labels.
func FromIntegrated(stories []*event.IntegratedStory) Assignment {
	a := make(Assignment)
	for _, is := range stories {
		for _, m := range is.Members {
			for _, sn := range m.Snippets {
				a[sn.ID] = uint64(is.ID)
			}
		}
	}
	return a
}

// Restrict returns a copy of the assignment containing only snippets whose
// IDs pass the filter. Used to score a single source's identification
// quality against global ground truth.
func (a Assignment) Restrict(keep func(event.SnippetID) bool) Assignment {
	out := make(Assignment)
	for id, l := range a {
		if keep(id) {
			out[id] = l
		}
	}
	return out
}
