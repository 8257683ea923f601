package similarity

import (
	"math"
	"time"

	"repro/internal/event"
)

// StoryConfig parameterises story-vs-story similarity used by alignment.
type StoryConfig struct {
	// Weights for the combined score.
	Weights Weights
	// GapScale controls how quickly the temporal component decays with the
	// gap between the two stories' extents.
	GapScale time.Duration
	// EvolutionBuckets is the number of equal-width time buckets used to
	// compare story evolution shapes (0 disables the evolution component).
	EvolutionBuckets int
	// EvolutionWeight blends the evolution-shape similarity into the
	// description component (0..1).
	EvolutionWeight float64
	// EntityWeight optionally weights entities in the Jaccard component
	// (nil = uniform), keyed by interned entity symbol.
	EntityWeight IDWeighter
}

// DefaultStoryConfig returns the configuration used by the demo system.
func DefaultStoryConfig() StoryConfig {
	return StoryConfig{
		Weights:          DefaultWeights(),
		GapScale:         7 * 24 * time.Hour,
		EvolutionBuckets: 8,
		EvolutionWeight:  0.25,
	}
}

// Stories scores the similarity of two per-source stories, combining
// entity overlap, description-centroid cosine, evolution-shape similarity,
// and temporal-extent proximity (paper §2.3: "two stories are likely to
// refer to the same real-world story if their evolution is similar and
// their content is similar as well"), and reports whether the score
// reaches floor. Callers only test the score against a threshold, so the
// evolution term, the costly one, is computed only when the score with a
// perfect evolution term could still reach floor: the term lies in [0, 1]
// and, under a non-negative description weight, every step of the score
// rounds monotonically in it, so that score bounds the real one exactly.
// When ok is false, score is an upper bound, not the score.
func Stories(a, b *event.Story, cfg StoryConfig, floor float64) (score float64, ok bool) {
	if a.Len() == 0 || b.Len() == 0 {
		return 0, 0 >= floor
	}
	w := cfg.Weights.Normalized()
	entity := WeightedJaccardIDSets(a.EntityFreq, b.EntityFreq, cfg.EntityWeight)
	content := CosineIDsNorm(a.Centroid, a.CentroidNorm(), b.Centroid, b.CentroidNorm())
	gap := GapDecay(extentGap(a, b), cfg.GapScale)
	if cfg.EvolutionBuckets > 1 && cfg.EvolutionWeight > 0 {
		if bound := storyScore(w, entity, blend(content, 1, cfg.EvolutionWeight), gap); w.Description >= 0 && !(bound >= floor) {
			return bound, false
		}
		content = blend(content, evolutionSimilarity(a, b, cfg.EvolutionBuckets), cfg.EvolutionWeight)
	}
	score = storyScore(w, entity, content, gap)
	return score, score >= floor
}

// blend mixes the evolution-shape similarity into the description cosine.
// Stories computes its bound and its score through blend and storyScore
// alike, and the explicit conversions round every product on its own (the
// language lets a compiler fuse a multiply-add otherwise), so the two round
// the same way wherever they are inlined.
func blend(cosine, evolution, weight float64) float64 {
	return float64((1-weight)*cosine) + float64(weight*evolution)
}

// storyScore combines the entity, description and temporal terms.
func storyScore(w Weights, entity, content, gap float64) float64 {
	sim := float64(w.Entity * entity)
	sim += float64(w.Description * content)
	sim += float64(w.Temporal * gap)
	return sim
}

// extentGap returns the temporal gap between the stories' extents; zero or
// negative when they overlap.
func extentGap(a, b *event.Story) time.Duration {
	switch {
	case a.End.Before(b.Start):
		return b.Start.Sub(a.End)
	case b.End.Before(a.Start):
		return a.Start.Sub(b.End)
	default:
		return 0
	}
}

// evolutionSimilarity compares the *shape* of two stories' evolution: each
// story's snippets are bucketed over the union extent into k equal-width
// intervals, producing an activity profile; the profiles are compared with
// cosine similarity. Two stories that burst and quiet down at the same
// times score high even if their overall volumes differ.
func evolutionSimilarity(a, b *event.Story, k int) float64 {
	start, end := a.Start, a.End
	if b.Start.Before(start) {
		start = b.Start
	}
	if b.End.After(end) {
		end = b.End
	}
	span := end.Sub(start)
	if span <= 0 {
		// All snippets at the same instant: identical (degenerate) shape.
		return 1
	}
	// Alignment runs this once per candidate pair: the profiles live on
	// the stack up to profileStack buckets (the default is 8).
	var bufA, bufB [profileStack]float64
	var pa, pb []float64
	if k <= profileStack {
		pa, pb = bufA[:k], bufB[:k]
	} else {
		pa, pb = make([]float64, k), make([]float64, k)
	}
	profile(pa, a, start, span)
	profile(pb, b, start, span)
	var dot, na, nb float64
	for i := 0; i < k; i++ {
		dot += pa[i] * pb[i]
		na += pa[i] * pa[i]
		nb += pb[i] * pb[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	s := dot / math.Sqrt(na*nb)
	if s > 1 {
		s = 1
	}
	return s
}

// profileStack is the bucket count evolutionSimilarity profiles without
// a heap allocation.
const profileStack = 8

// profile fills the zeroed p with the story's snippet counts per bucket
// of the len(p) equal-width buckets over [start, start+span].
func profile(p []float64, st *event.Story, start time.Time, span time.Duration) {
	k := len(p)
	for _, s := range st.Snippets {
		idx := int(float64(s.Timestamp.Sub(start)) / float64(span) * float64(k))
		if idx >= k {
			idx = k - 1
		}
		if idx < 0 {
			idx = 0
		}
		p[idx]++
	}
}
