package align

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/event"
	"repro/internal/identify"
	"repro/internal/similarity"
)

// acceptingMover accepts every move without touching any story, so the
// reference and the implementation plan over the same result and every
// move they request shows up as a returned Correction.
type acceptingMover struct{}

func (acceptingMover) Move(event.SnippetID, event.StoryID) bool { return true }

// refineReference is Refine as it stood before it learned to score a
// component's targets before searching it for support: the support search
// runs first, for every snippet against every integrated story. It is the
// oracle of TestRefineMatchesReference and must stay this literal.
func refineReference(res *Result, movers map[event.SourceID]Mover, cfg RefineConfig) []Correction {
	var corrections []Correction
	type plan struct {
		c      Correction
		target *event.Story
	}
	var plans []plan

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
				for _, other := range res.Integrated {
					if !hasCrossSourceSupport(sn, other, cfg) {
						continue
					}
					for _, cand := range other.Members {
						if cand.Source != home.Source || cand.ID == home.ID {
							continue
						}
						ref := nearestTime(cand, sn.Timestamp)
						score := similarity.SnippetStoryIDs(sn, cand.EntityFreq, cand.Centroid,
							cand.CentroidNorm(), ref, cfg.TemporalScale, cfg.Weights, nil)
						if score > bestScore {
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

// refineFixture identifies and aligns a generated corpus.
func refineFixture(seed int64, sources int) *Result {
	cfg := datagen.DefaultConfig()
	cfg.Seed = seed
	cfg.Sources = sources
	cfg.Stories = 12
	cfg.EventsPerStory = 10
	c := datagen.Generate(cfg)
	ids := identify.RunAll(c.Snippets, identify.DefaultConfig(), nil)
	return Align(identify.StoriesBySource(ids), DefaultConfig())
}

// TestRefineMatchesReference is the exactness check for Refine's
// candidate order: on the 8-source corpus shape and on the 2–3-source
// shape a cluster shard sees, it must return the corrections of the
// literal triple loop — same order, same Gain to the bit.
func TestRefineMatchesReference(t *testing.T) {
	fired := 0
	for _, sources := range []int{8, 3, 2} {
		for _, seed := range []int64{1, 2, 3} {
			name := fmt.Sprintf("sources%d/seed%d", sources, seed)
			res := refineFixture(seed, sources)
			movers := map[event.SourceID]Mover{}
			for _, is := range res.Integrated {
				for _, m := range is.Members {
					movers[m.Source] = acceptingMover{}
				}
			}
			want := refineReference(res, movers, DefaultRefineConfig())
			got := Refine(res, movers, DefaultRefineConfig())
			if len(got) != len(want) {
				t.Fatalf("%s: %d corrections, reference %d", name, len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if g.Snippet != w.Snippet || g.Source != w.Source || g.From != w.From || g.To != w.To ||
					math.Float64bits(g.Gain) != math.Float64bits(w.Gain) {
					t.Fatalf("%s: correction %d = %+v, reference %+v", name, i, g, w)
				}
			}
			fired += len(want)
			t.Logf("%s: %d integrated stories, %d corrections", name, len(res.Integrated), len(want))
		}
	}
	if fired == 0 {
		t.Fatal("no fixture produced a correction: the comparison is vacuous")
	}
}
