package similarity_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/event"
	"repro/internal/identify"
	"repro/internal/similarity"
)

// fullScore is the story score as Stories computed it before it took a
// floor, copied verbatim: every term, the evolution term included, always.
func fullScore(a, b *event.Story, cfg similarity.StoryConfig) float64 {
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	w := cfg.Weights.Normalized()

	content := similarity.CosineIDsNorm(a.Centroid, a.CentroidNorm(), b.Centroid, b.CentroidNorm())
	if cfg.EvolutionBuckets > 1 && cfg.EvolutionWeight > 0 {
		evo := similarity.EvolutionSimilarity(a, b, cfg.EvolutionBuckets)
		content = (1-cfg.EvolutionWeight)*content + cfg.EvolutionWeight*evo
	}

	sim := w.Entity * similarity.WeightedJaccardIDSets(a.EntityFreq, b.EntityFreq, cfg.EntityWeight)
	sim += w.Description * content
	sim += w.Temporal * similarity.GapDecay(similarity.ExtentGap(a, b), cfg.GapScale)
	return sim
}

// floorStory builds a story of source src with one snippet per day offset
// (from 2014-07-01), each carrying ents and term.
func floorStory(id event.StoryID, src event.SourceID, days []int, term string, ents ...event.Entity) *event.Story {
	st := event.NewStory(id, src)
	for i, d := range days {
		sn := &event.Snippet{
			ID: event.SnippetID(uint64(id)*100 + uint64(i)), Source: src,
			Timestamp: time.Date(2014, 7, 1+d, 0, 0, 0, 0, time.UTC),
			Entities:  ents,
			Terms:     []event.Term{{Token: term, Weight: 1}},
		}
		sn.Normalize()
		st.Add(sn)
	}
	return st
}

// TestStoriesFloorMatchesFullScore checks the floor against the full
// score: for every pair and floor, Stories reports ok exactly when the
// full score reaches the floor, and then returns the full score bit for
// bit. The pairs are every cross-source pair of stories identified from a
// generated corpus, plus hand-made edge cases (an empty story,
// single-instant stories whose evolution term is 1, disjoint extents);
// the configurations cover no evolution term (0 and 1 buckets), the
// default blend, a blend of weight 1 and more buckets than fit on the
// stack, each under uniform and IDF entity weights, and a negative
// description weight. The floors include the
// pair's own score and its neighbours on both sides, where a bound that
// is not exact, or a comparison off by one, shows.
func TestStoriesFloorMatchesFullScore(t *testing.T) {
	gen := datagen.DefaultConfig()
	gen.Seed, gen.Sources, gen.Stories, gen.EventsPerStory = 5, 4, 12, 6
	var pool []*event.Story
	for _, sts := range identify.StoriesBySource(identify.RunAll(datagen.Generate(gen).Snippets, identify.DefaultConfig(), nil)) {
		pool = append(pool, sts...)
	}
	type pair struct{ a, b *event.Story }
	var pairs []pair
	for i, a := range pool {
		for _, b := range pool[i+1:] {
			if a.Source != b.Source {
				pairs = append(pairs, pair{a, b}, pair{b, a})
			}
		}
	}
	corpusPairs := len(pairs)
	crash := floorStory(1001, "nyt", []int{16, 17, 19}, "crash", "UKR", "MAL")
	crash2 := floorStory(1002, "wsj", []int{16, 18, 19}, "crash", "UKR", "MAL")
	instant := floorStory(1003, "nyt", []int{17, 17}, "crash", "UKR")
	instant2 := floorStory(1004, "wsj", []int{17}, "crash", "UKR", "MAL")
	late := floorStory(1005, "wsj", []int{25, 27}, "crash", "MAL")
	other := floorStory(1006, "wsj", []int{16, 17}, "search", "GOOG")
	empty := event.NewStory(1007, "nyt")
	for _, p := range [][2]*event.Story{
		{crash, crash2}, {crash, instant2}, {instant, instant2}, {instant, crash2},
		{crash, late}, {instant, late}, {crash, other}, {crash, empty}, {empty, crash2}, {empty, empty},
	} {
		pairs = append(pairs, pair{p[0], p[1]}, pair{p[1], p[0]})
	}

	var live similarity.EntityIDF
	for _, st := range append(pool, crash, crash2, instant, instant2, late, other) {
		for _, ec := range st.EntityFreq {
			live.Add(ec.ID, ec.N)
		}
	}
	idf := live.Tabulate(nil)
	var cfgs []similarity.StoryConfig
	for _, weight := range []similarity.IDWeighter{nil, idf.Weight} {
		for _, shape := range []struct {
			buckets int
			weight  float64
		}{{0, 0.25}, {1, 0.25}, {8, 0.25}, {8, 1}, {20, 0.25}} {
			cfg := similarity.DefaultStoryConfig()
			cfg.EntityWeight = weight
			cfg.EvolutionBuckets, cfg.EvolutionWeight = shape.buckets, shape.weight
			cfgs = append(cfgs, cfg)
		}
	}
	// A negative description weight turns the bound around: the score then
	// falls as the evolution term grows.
	negative := similarity.DefaultStoryConfig()
	negative.Weights = similarity.Weights{Entity: 0.6, Description: -0.2, Temporal: 0.6}
	cfgs = append(cfgs, negative)

	reached, missed, below := 0, 0, 0
	for ci, cfg := range cfgs {
		for _, p := range pairs {
			full := fullScore(p.a, p.b, cfg)
			if full < 0.38 {
				below++
			}
			for _, floor := range []float64{
				math.Inf(-1), 0, 0.38, 1, full, math.Nextafter(full, math.Inf(1)), math.Nextafter(full, math.Inf(-1)),
			} {
				score, ok := similarity.Stories(p.a, p.b, cfg, floor)
				if ok != (full >= floor) {
					t.Fatalf("config %d, stories %d and %d, floor %v: ok = %v, full score %v", ci, p.a.ID, p.b.ID, floor, ok, full)
				}
				if !ok {
					missed++
					continue
				}
				reached++
				if math.Float64bits(score) != math.Float64bits(full) {
					t.Fatalf("config %d, stories %d and %d, floor %v: score %v, full score %v", ci, p.a.ID, p.b.ID, floor, score, full)
				}
			}
		}
	}
	t.Logf("%d corpus pairs and %d hand-made ones under %d configurations: %d scores reached their floor, %d did not; %d full scores below 0.38",
		corpusPairs, len(pairs)-corpusPairs, len(cfgs), reached, missed, below)
	if corpusPairs == 0 || missed == 0 || below == 0 {
		t.Fatal("the corpus does not exercise floors the score misses")
	}
}
