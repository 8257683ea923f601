package align

import (
	"sort"
	"time"

	"repro/internal/event"
	"repro/internal/similarity"
	"repro/internal/vocab"
)

// RefineConfig parameterises story refinement (paper Figure 1d): the
// correction of story-identification mistakes using cross-source evidence
// surfaced by alignment.
type RefineConfig struct {
	// Margin is the score advantage a foreign story must have over the
	// snippet's home story (with the snippet's own contribution removed)
	// before the snippet is moved. Larger margins make refinement more
	// conservative.
	Margin float64
	// SupportThreshold is the minimum snippet-level similarity to a
	// snippet of *another source* inside the target integrated story; a
	// move needs independent cross-source support, which is exactly the
	// "irregularity" signal of the paper (related snippets across sources
	// land in different stories).
	SupportThreshold float64
	// SupportScale is the temporal tolerance for support snippets.
	SupportScale time.Duration
	// MinTargetScore is the absolute floor a target story must clear
	// regardless of how weak the home story is; it stops snippets in
	// singleton stories from drifting to any temporally close story.
	MinTargetScore float64
	// Weights for snippet-level and snippet-story comparisons.
	Weights similarity.Weights
	// TemporalScale for the snippet-story temporal component.
	TemporalScale time.Duration
}

// DefaultRefineConfig returns the configuration used by the demo system.
func DefaultRefineConfig() RefineConfig {
	return RefineConfig{
		Margin:           0.08,
		SupportThreshold: 0.4,
		SupportScale:     3 * 24 * time.Hour,
		MinTargetScore:   0.3,
		Weights:          similarity.DefaultWeights(),
		TemporalScale:    4 * 24 * time.Hour,
	}
}

// Mover re-homes a snippet within one source's story set; the per-source
// Identifier satisfies it.
type Mover interface {
	Move(snID event.SnippetID, to event.StoryID) bool
}

// Correction records one refinement decision.
type Correction struct {
	Snippet  event.SnippetID
	Source   event.SourceID
	From, To event.StoryID
	Gain     float64 // target score minus home score
}

// Refine examines every snippet of every integrated story and moves
// snippets whose cross-source evidence places them in a different story of
// their own source (paper Figure 1d: v¹₄ moves from c¹₁ to c¹₃). Moves are
// applied through the per-source movers so identifier state stays
// consistent. The alignment result is stale after refinement; the caller
// re-runs alignment if it needs fresh integrated stories.
func Refine(res *Result, movers map[event.SourceID]Mover, cfg RefineConfig) []Correction {
	span := metRefineLat.Start()
	defer span.End()
	metRefineRuns.Inc()
	var corrections []Correction
	defer func() { metRefineMovesApplied.Add(uint64(len(corrections))) }()

	// Plan all moves first, then apply: applying while scanning would make
	// later scores depend on earlier moves within the same pass.
	type plan struct {
		c      Correction
		target *event.Story
	}
	var plans []plan

	// Only a story spanning two sources can hold both a target of the
	// snippet's own source and support from another, and only one with a
	// snippet within SupportScale of the snippet's time can support it.
	type reach struct {
		is       *event.IntegratedStory
		from, to time.Time // extent widened by SupportScale
	}
	var multi []reach
	for _, is := range res.MultiSource() {
		start, end := is.Extent()
		multi = append(multi, reach{is, start.Add(-cfg.SupportScale), end.Add(cfg.SupportScale)})
	}
	for _, is := range res.Integrated {
		for _, home := range is.Members {
			mover := movers[home.Source]
			if mover == nil {
				continue
			}
			for _, sn := range home.Snippets {
				homeScore := scoreWithoutSelf(sn, home, cfg)
				best := plan{}
				bestScore := homeScore + cfg.Margin
				if bestScore < cfg.MinTargetScore {
					bestScore = cfg.MinTargetScore
				}
				// Candidate targets: other stories of the same source —
				// in other integrated components or the snippet's own —
				// inside components that have cross-source support for
				// this snippet. The support requirement is the paper's
				// "irregularity" signal: related snippets in other
				// sources sit with the candidate story, not the home.
				// Support does not depend on the scores, so it is searched
				// for only once a target of the component could win.
				for _, other := range multi {
					if sn.Timestamp.Before(other.from) || sn.Timestamp.After(other.to) {
						continue
					}
					supported := false
					for _, cand := range other.is.Members {
						if cand.Source != home.Source || cand.ID == home.ID {
							continue
						}
						ref := nearestTime(cand, sn.Timestamp)
						score := similarity.SnippetStoryIDs(sn, cand.EntityFreq, cand.Centroid,
							cand.CentroidNorm(), ref, cfg.TemporalScale, cfg.Weights, nil)
						if score > bestScore {
							if !supported {
								if !hasCrossSourceSupport(sn, other.is, cfg) {
									break
								}
								supported = true
							}
							bestScore = score
							best = plan{
								c: Correction{
									Snippet: sn.ID, Source: home.Source,
									From: home.ID, To: cand.ID,
									Gain: score - homeScore,
								},
								target: cand,
							}
						}
					}
				}
				if best.target != nil {
					plans = append(plans, best)
				}
			}
		}
	}
	// Apply best-gain-first; once a story has been modified by an applied
	// move, the remaining plans that read or write it are stale — their
	// scores were computed against the old contents — so they are skipped
	// and left for the next refinement round.
	sort.Slice(plans, func(i, j int) bool {
		if plans[i].c.Gain != plans[j].c.Gain {
			return plans[i].c.Gain > plans[j].c.Gain
		}
		return plans[i].c.Snippet < plans[j].c.Snippet
	})
	touched := make(map[event.StoryID]bool)
	for _, p := range plans {
		if touched[p.c.From] || touched[p.c.To] {
			continue
		}
		if movers[p.c.Source].Move(p.c.Snippet, p.c.To) {
			corrections = append(corrections, p.c)
			touched[p.c.From] = true
			touched[p.c.To] = true
		}
	}
	return corrections
}

// scoreWithoutSelf computes the snippet's similarity to its home story
// with the snippet's own contribution removed from the aggregates, so a
// snippet cannot vouch for itself.
func scoreWithoutSelf(sn *event.Snippet, home *event.Story, cfg RefineConfig) float64 {
	if home.Len() <= 1 {
		return 0 // alone in its story: any supported alternative wins
	}
	sn.EnsureInterned()
	centroid := vocab.SubWeights(append([]vocab.IDWeight(nil), home.Centroid...), sn.TermIDs)
	ents := vocab.DecCounts(append([]vocab.IDCount(nil), home.EntityFreq...), sn.EntityIDs)
	ref := nearestOtherTime(home, sn)
	return similarity.SnippetStoryIDs(sn, ents, centroid, vocab.WeightNorm(centroid), ref,
		cfg.TemporalScale, cfg.Weights, nil)
}

// hasCrossSourceSupport reports whether the integrated story contains a
// temporally close, similar snippet from a source other than sn's.
func hasCrossSourceSupport(sn *event.Snippet, is *event.IntegratedStory, cfg RefineConfig) bool {
	for _, m := range is.Members {
		if m.Source == sn.Source {
			continue
		}
		lo := sn.Timestamp.Add(-cfg.SupportScale)
		hi := sn.Timestamp.Add(cfg.SupportScale)
		for _, other := range m.WindowSnippets(lo, hi) {
			if similarity.Snippets(sn, other, cfg.SupportScale, cfg.Weights) >= cfg.SupportThreshold {
				return true
			}
		}
	}
	return false
}

func nearestTime(st *event.Story, t time.Time) time.Time {
	n := st.Len()
	if n == 0 {
		return t
	}
	i := sort.Search(n, func(i int) bool { return !st.Snippets[i].Timestamp.Before(t) })
	switch {
	case i == 0:
		return st.Snippets[0].Timestamp
	case i == n:
		return st.Snippets[n-1].Timestamp
	default:
		before, after := st.Snippets[i-1].Timestamp, st.Snippets[i].Timestamp
		if t.Sub(before) <= after.Sub(t) {
			return before
		}
		return after
	}
}

// nearestOtherTime is nearestTime excluding the snippet itself.
func nearestOtherTime(st *event.Story, sn *event.Snippet) time.Time {
	bestDiff := time.Duration(-1)
	best := sn.Timestamp
	for _, other := range st.Snippets {
		if other.ID == sn.ID {
			continue
		}
		d := other.Timestamp.Sub(sn.Timestamp)
		if d < 0 {
			d = -d
		}
		if bestDiff < 0 || d < bestDiff {
			bestDiff, best = d, other.Timestamp
		}
	}
	return best
}
