// Package similarity implements the matching kernel of StoryPivot: the
// content and temporal similarity measures used by story identification
// (snippet vs. story) and story alignment (story vs. story).
//
// Per the paper (§2.2, §2.3), two snippets/stories are likely to belong
// together if their entities overlap, their descriptions are similar, and
// they are temporally close. The kernel therefore combines three signals:
//
//	sim = wE·JaccardWeighted(entities) + wD·Cosine(terms) + wT·TemporalDecay
//
// with configurable weights. All component similarities are in [0, 1] and
// symmetric, so the combination is too.
package similarity

import (
	"math"
	"time"

	"repro/internal/event"
)

// Weights configures the relative importance of the three signals. The
// zero value is invalid; use DefaultWeights.
type Weights struct {
	Entity      float64
	Description float64
	Temporal    float64
}

// DefaultWeights mirror the intuition of the paper's examples: shared
// entities are the strongest story signal, description overlap second,
// temporal proximity a tie-breaker.
func DefaultWeights() Weights {
	return Weights{Entity: 0.45, Description: 0.35, Temporal: 0.20}
}

// Normalized returns the weights scaled to sum to 1. If all weights are
// zero it returns DefaultWeights.
func (w Weights) Normalized() Weights {
	sum := w.Entity + w.Description + w.Temporal
	if sum <= 0 {
		return DefaultWeights()
	}
	return Weights{w.Entity / sum, w.Description / sum, w.Temporal / sum}
}

// TemporalDecay maps the distance between two timestamps to (0, 1] with an
// exponential kernel exp(-|Δt| / scale). Identical timestamps score 1;
// at Δt = scale the score is 1/e ≈ 0.37.
func TemporalDecay(a, b time.Time, scale time.Duration) float64 {
	if scale <= 0 {
		if a.Equal(b) {
			return 1
		}
		return 0
	}
	dt := a.Sub(b)
	if dt < 0 {
		dt = -dt
	}
	return math.Exp(-float64(dt) / float64(scale))
}

// GapDecay maps a non-negative temporal gap between two story extents to
// [0, 1]: zero or negative gap (overlap) scores 1, decaying exponentially
// with the gap size afterwards.
func GapDecay(gap, scale time.Duration) float64 {
	if gap <= 0 {
		return 1
	}
	if scale <= 0 {
		return 0
	}
	return math.Exp(-float64(gap) / float64(scale))
}

// adaptive drops the entity and/or description component when either side
// carries no evidence for it, renormalising the remaining weights. Missing
// evidence (a snippet with no recognised entities, say) is thereby treated
// as "no signal" rather than "zero similarity", which keeps entity-less
// snippets attachable to their stories.
func adaptive(w Weights, hasEnt, hasDesc bool) Weights {
	we := w.Normalized()
	if !hasEnt {
		we.Entity = 0
	}
	if !hasDesc {
		we.Description = 0
	}
	sum := we.Entity + we.Description + we.Temporal
	if sum <= 0 {
		return Weights{Temporal: 1}
	}
	return Weights{we.Entity / sum, we.Description / sum, we.Temporal / sum}
}

// Snippets scores the similarity of two snippets directly (used by the
// split/merge connectivity graph and by align-vs-enrich classification).
// As in SnippetStoryIDs, components with no evidence on either side are
// dropped and the weights renormalised.
func Snippets(a, b *event.Snippet, scale time.Duration, w Weights) float64 {
	a.EnsureInterned()
	b.EnsureInterned()
	return SnippetsIDs(a, b, scale, w)
}
