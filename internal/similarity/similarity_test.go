package similarity

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/event"
	"repro/internal/vocab"
)

func day(d int) time.Time { return time.Date(2014, 7, d, 0, 0, 0, 0, time.UTC) }

func snip(id event.SnippetID, src event.SourceID, d int, ents []event.Entity, terms ...event.Term) *event.Snippet {
	s := &event.Snippet{ID: id, Source: src, Timestamp: day(d), Entities: ents, Terms: terms}
	s.Normalize()
	return s
}

func TestWeightsNormalized(t *testing.T) {
	w := Weights{Entity: 2, Description: 1, Temporal: 1}.Normalized()
	if math.Abs(w.Entity+w.Description+w.Temporal-1) > 1e-12 {
		t.Fatalf("normalized weights sum to %g", w.Entity+w.Description+w.Temporal)
	}
	if w.Entity != 0.5 {
		t.Errorf("Entity = %g, want 0.5", w.Entity)
	}
	// All-zero weights fall back to defaults.
	z := Weights{}.Normalized()
	if z != DefaultWeights() {
		t.Errorf("zero weights normalized to %+v", z)
	}
}

// weightVec interns a token->weight map into the sorted ID vector the
// kernels take.
func weightVec(m map[string]float64) []vocab.IDWeight {
	out := make([]vocab.IDWeight, 0, len(m))
	for tok, w := range m {
		out = append(out, vocab.IDWeight{ID: vocab.Terms.ID(tok), W: w})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// countVec interns an entity->count map into a story-side frequency
// vector. Zero counts are kept: the kernels must treat them as absent.
func countVec(m map[event.Entity]int) []vocab.IDCount {
	out := make([]vocab.IDCount, 0, len(m))
	for e, n := range m {
		out = append(out, vocab.IDCount{ID: vocab.Entities.ID(string(e)), N: int32(n)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// entityIDs interns a snippet-side entity list (sorted, deduplicated).
func entityIDs(ents ...event.Entity) []uint32 {
	out := make([]uint32, 0, len(ents))
	for _, e := range ents {
		out = append(out, vocab.Entities.ID(string(e)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestCosineTerms(t *testing.T) {
	a := weightVec(map[string]float64{"crash": 1, "plane": 1})
	b := weightVec(map[string]float64{"crash": 1, "plane": 1})
	if got := CosineIDs(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical vectors cosine = %g, want 1", got)
	}
	c := weightVec(map[string]float64{"sanctions": 1})
	if got := CosineIDs(a, c); got != 0 {
		t.Errorf("orthogonal vectors cosine = %g, want 0", got)
	}
	if got := CosineIDs(nil, a); got != 0 {
		t.Errorf("empty vector cosine = %g, want 0", got)
	}
	// Scaling invariance.
	d := weightVec(map[string]float64{"crash": 10, "plane": 10})
	if got := CosineIDs(a, d); math.Abs(got-1) > 1e-12 {
		t.Errorf("scaled vectors cosine = %g, want 1", got)
	}
}

func TestCosineSymmetryAndRangeQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	toks := []string{"a", "b", "c", "d", "e", "f"}
	genVec := func() []vocab.IDWeight {
		v := make(map[string]float64)
		for _, tok := range toks {
			if rng.Intn(2) == 0 {
				v[tok] = rng.Float64() * 10
			}
		}
		return weightVec(v)
	}
	f := func(int64) bool {
		a, b := genVec(), genVec()
		an, bn := vocab.WeightNorm(a), vocab.WeightNorm(b)
		s1, s2 := CosineIDsNorm(a, an, b, bn), CosineIDsNorm(b, bn, a, an)
		if math.Abs(s1-s2) > 1e-12 {
			return false
		}
		return s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCosineTermsNormMatchesCosineTerms(t *testing.T) {
	a := weightVec(map[string]float64{"crash": 2, "plane": 1})
	b := weightVec(map[string]float64{"crash": 1, "shot": 3})
	got := CosineIDsNorm(a, math.Sqrt(5), b, math.Sqrt(10))
	want := CosineIDs(a, b)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("CosineIDsNorm = %g, CosineIDs = %g", got, want)
	}
	if want := 2 / math.Sqrt(50); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CosineIDsNorm = %g, want %g", got, want)
	}
	if CosineIDsNorm(a, math.Sqrt(5), b, 0) != 0 || CosineIDsNorm(a, 0, b, math.Sqrt(10)) != 0 {
		t.Error("zero norm must yield 0")
	}
}

func TestJaccardEntities(t *testing.T) {
	story := countVec(map[event.Entity]int{"UKR": 3, "MAL": 1})
	if got := JaccardIDs(entityIDs("UKR", "MAL"), story); got != 1 {
		t.Errorf("full overlap = %g, want 1", got)
	}
	if got := JaccardIDs(entityIDs("UKR", "RUS"), story); got != 1.0/3 {
		t.Errorf("partial = %g, want 1/3", got)
	}
	if got := JaccardIDs(nil, story); got != 0 {
		t.Errorf("empty snippet = %g", got)
	}
	if got := JaccardIDs(entityIDs("UKR"), nil); got != 0 {
		t.Errorf("empty story = %g", got)
	}
	// Zero-count entries in the story vector are treated as absent.
	story2 := countVec(map[event.Entity]int{"UKR": 0})
	if got := JaccardIDs(entityIDs("UKR"), story2); got != 0 {
		t.Errorf("zero-count entity counted: %g", got)
	}
}

func TestJaccardEntitySetsSymmetric(t *testing.T) {
	a := countVec(map[event.Entity]int{"A": 1, "B": 2, "C": 1})
	b := countVec(map[event.Entity]int{"B": 5, "C": 1, "D": 2})
	s1, s2 := JaccardIDSets(a, b), JaccardIDSets(b, a)
	if s1 != s2 {
		t.Fatalf("asymmetric: %g vs %g", s1, s2)
	}
	if want := 2.0 / 4.0; s1 != want {
		t.Fatalf("Jaccard = %g, want %g", s1, want)
	}
}

func TestTemporalDecay(t *testing.T) {
	scale := 24 * time.Hour
	if got := TemporalDecay(day(1), day(1), scale); got != 1 {
		t.Errorf("zero distance = %g", got)
	}
	oneDayApart := TemporalDecay(day(1), day(2), scale)
	if math.Abs(oneDayApart-1/math.E) > 1e-12 {
		t.Errorf("one scale apart = %g, want 1/e", oneDayApart)
	}
	// Symmetric.
	if TemporalDecay(day(2), day(1), scale) != oneDayApart {
		t.Error("TemporalDecay not symmetric")
	}
	// Degenerate scale.
	if TemporalDecay(day(1), day(2), 0) != 0 || TemporalDecay(day(1), day(1), 0) != 1 {
		t.Error("zero scale handling wrong")
	}
}

func TestGapDecay(t *testing.T) {
	if GapDecay(-time.Hour, time.Hour) != 1 || GapDecay(0, time.Hour) != 1 {
		t.Error("overlap must score 1")
	}
	if got := GapDecay(time.Hour, time.Hour); math.Abs(got-1/math.E) > 1e-12 {
		t.Errorf("gap=scale decay = %g", got)
	}
	if GapDecay(time.Hour, 0) != 0 {
		t.Error("zero scale with positive gap must be 0")
	}
}

func TestSnippetStoryScore(t *testing.T) {
	st := event.NewStory(1, "nyt")
	st.Add(snip(1, "nyt", 17, []event.Entity{"UKR", "MAL"}, event.Term{Token: "crash", Weight: 2}))
	st.Add(snip(2, "nyt", 18, []event.Entity{"UKR"}, event.Term{Token: "investig", Weight: 1}))

	matching := snip(3, "nyt", 18, []event.Entity{"UKR", "MAL"}, event.Term{Token: "crash", Weight: 1})
	unrelated := snip(4, "nyt", 18, []event.Entity{"ISL"}, event.Term{Token: "settlement", Weight: 1})

	w := DefaultWeights()
	scale := 3 * 24 * time.Hour
	sm := SnippetStoryIDs(matching, st.EntityFreq, st.Centroid, st.CentroidNorm(), day(18), scale, w, nil)
	su := SnippetStoryIDs(unrelated, st.EntityFreq, st.Centroid, st.CentroidNorm(), day(18), scale, w, nil)
	if !(sm > su) {
		t.Fatalf("matching snippet (%g) must outscore unrelated (%g)", sm, su)
	}
	if sm < 0 || sm > 1 || su < 0 || su > 1 {
		t.Fatalf("scores out of range: %g, %g", sm, su)
	}
}

func TestSnippetsPairScore(t *testing.T) {
	a := snip(1, "nyt", 17, []event.Entity{"MAL", "UKR"}, event.Term{Token: "crash", Weight: 1}, event.Term{Token: "plane", Weight: 1})
	b := snip(2, "wsj", 17, []event.Entity{"MAL", "UKR"}, event.Term{Token: "crash", Weight: 2}, event.Term{Token: "plane", Weight: 2})
	c := snip(3, "wsj", 17, []event.Entity{"GOOG"}, event.Term{Token: "search", Weight: 1})

	scale := 24 * time.Hour
	w := DefaultWeights()
	sab := Snippets(a, b, scale, w)
	sac := Snippets(a, c, scale, w)
	if !(sab > sac) {
		t.Fatalf("similar pair %g must outscore dissimilar %g", sab, sac)
	}
	if got := Snippets(b, a, scale, w); math.Abs(got-sab) > 1e-12 {
		t.Error("Snippets not symmetric")
	}
	// Identical snippets at same time score close to 1.
	if saa := Snippets(a, a, scale, w); math.Abs(saa-1) > 1e-9 {
		t.Errorf("self-similarity = %g, want 1", saa)
	}
}

func TestCosineSnippetTerms(t *testing.T) {
	// The description cosine as SnippetsIDs computes it: over the term
	// vectors and norms interning leaves on the snippets.
	a := snip(1, "s", 1, nil, event.Term{Token: "a", Weight: 1}, event.Term{Token: "b", Weight: 2})
	b := snip(2, "s", 1, nil, event.Term{Token: "b", Weight: 2}, event.Term{Token: "c", Weight: 1})
	got := CosineIDsNorm(a.TermIDs, a.TermNorm, b.TermIDs, b.TermNorm)
	if want := 4.0 / 5.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("snippet term cosine %g, want %g", got, want)
	}
	if want := CosineIDs(a.TermIDs, b.TermIDs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("cached-norm cosine %g != recomputed-norm cosine %g", got, want)
	}
	none := snip(3, "s", 1, nil)
	if CosineIDsNorm(none.TermIDs, none.TermNorm, b.TermIDs, b.TermNorm) != 0 {
		t.Error("empty term vector must yield 0")
	}
}

// score is the raw story score: Stories under a floor every score reaches.
func score(a, b *event.Story, cfg StoryConfig) float64 {
	s, _ := Stories(a, b, cfg, math.Inf(-1))
	return s
}

func TestStoriesSimilarity(t *testing.T) {
	cfg := DefaultStoryConfig()

	mk := func(id event.StoryID, src event.SourceID, days []int, term string, ents ...event.Entity) *event.Story {
		st := event.NewStory(id, src)
		for i, d := range days {
			st.Add(snip(event.SnippetID(uint64(id)*100+uint64(i)), src, d, ents, event.Term{Token: term, Weight: 1}))
		}
		return st
	}

	a := mk(1, "nyt", []int{17, 18, 20}, "crash", "UKR", "MAL")
	b := mk(2, "wsj", []int{17, 19, 20}, "crash", "UKR", "MAL")
	c := mk(3, "wsj", []int{17, 18}, "search", "GOOG")

	sab := score(a, b, cfg)
	sac := score(a, c, cfg)
	if !(sab > sac) {
		t.Fatalf("same-story pair %g must outscore different-story %g", sab, sac)
	}
	if sab <= 0 || sab > 1 {
		t.Fatalf("score out of range: %g", sab)
	}
	// Symmetry (centroid-norm caching must not break it).
	if sba := score(b, a, cfg); math.Abs(sab-sba) > 1e-9 {
		t.Fatalf("Stories not symmetric: %g vs %g", sab, sba)
	}
	// Empty story.
	empty := event.NewStory(9, "nyt")
	if score(a, empty, cfg) != 0 || score(empty, a, cfg) != 0 {
		t.Error("empty story similarity must be 0")
	}
}

func TestStoriesTemporalGapPenalty(t *testing.T) {
	cfg := DefaultStoryConfig()
	cfg.EvolutionBuckets = 0 // isolate the gap component

	mk := func(id event.StoryID, days []int) *event.Story {
		st := event.NewStory(id, "s")
		for i, d := range days {
			st.Add(snip(event.SnippetID(uint64(id)*100+uint64(i)), "s", d, []event.Entity{"UKR"}, event.Term{Token: "crash", Weight: 1}))
		}
		return st
	}
	base := mk(1, []int{1, 2, 3})
	near := mk(2, []int{3, 4})
	far := mk(3, []int{25, 26})
	if !(score(base, near, cfg) > score(base, far, cfg)) {
		t.Fatal("temporally distant story must score lower (paper §2.3)")
	}
}

func TestEvolutionSimilarity(t *testing.T) {
	// Same burst shape vs inverted shape.
	mk := func(id event.StoryID, days []int) *event.Story {
		st := event.NewStory(id, "s")
		for i, d := range days {
			st.Add(snip(event.SnippetID(uint64(id)*1000+uint64(i)), "s", d, []event.Entity{"E"}, event.Term{Token: "t", Weight: 1}))
		}
		return st
	}
	burstEarly := mk(1, []int{1, 1, 1, 2, 20})
	burstEarly2 := mk(2, []int{1, 1, 2, 2, 20})
	burstLate := mk(3, []int{1, 19, 20, 20, 20})

	same := evolutionSimilarity(burstEarly, burstEarly2, 8)
	diff := evolutionSimilarity(burstEarly, burstLate, 8)
	if !(same > diff) {
		t.Fatalf("same-shape evolution %g must exceed inverted %g", same, diff)
	}
	// Degenerate: all snippets at one instant.
	inst1, inst2 := mk(4, []int{5}), mk(5, []int{5})
	if got := evolutionSimilarity(inst1, inst2, 8); got != 1 {
		t.Errorf("degenerate span similarity = %g, want 1", got)
	}
}

func TestWeightedJaccardEntities(t *testing.T) {
	story := countVec(map[event.Entity]int{"POPULAR": 3, "RARE": 1})
	popular := vocab.Entities.ID("POPULAR")
	uniform := func(uint32) float64 { return 1 }
	// Uniform weights reduce to plain Jaccard.
	sn := entityIDs("OTHER", "POPULAR")
	if got, want := WeightedJaccardIDs(sn, story, uniform),
		JaccardIDs(sn, story); math.Abs(got-want) > 1e-12 {
		t.Fatalf("uniform weighted %g != plain %g", got, want)
	}
	// Nil weighter delegates to plain Jaccard.
	if got, want := WeightedJaccardIDs(sn, story, nil),
		JaccardIDs(sn, story); got != want {
		t.Fatalf("nil weighter %g != plain %g", got, want)
	}
	// Down-weighting the shared popular entity lowers the score.
	idf := func(id uint32) float64 {
		if id == popular {
			return 0.1
		}
		return 1
	}
	weighted := WeightedJaccardIDs(sn, story, idf)
	plain := JaccardIDs(sn, story)
	if !(weighted < plain) {
		t.Fatalf("IDF-weighted %g not below plain %g", weighted, plain)
	}
	if weighted < 0 || weighted > 1 {
		t.Fatalf("weighted score out of range: %g", weighted)
	}
	// Empty sides.
	if WeightedJaccardIDs(nil, story, idf) != 0 ||
		WeightedJaccardIDs(sn, nil, idf) != 0 {
		t.Fatal("empty side must yield 0")
	}
	// Zero-count story entries are ignored.
	zeroed := countVec(map[event.Entity]int{"POPULAR": 0, "RARE": 1})
	if got := WeightedJaccardIDs(entityIDs("POPULAR"), zeroed, idf); got != 0 {
		t.Fatalf("zero-count entity counted: %g", got)
	}
}

func TestWeightedJaccardEntitySets(t *testing.T) {
	a := countVec(map[event.Entity]int{"A": 1, "B": 2})
	b := countVec(map[event.Entity]int{"B": 1, "C": 4})
	shared := vocab.Entities.ID("B")
	uniform := func(uint32) float64 { return 1 }
	if got, want := WeightedJaccardIDSets(a, b, uniform),
		JaccardIDSets(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("uniform weighted %g != plain %g", got, want)
	}
	if got, want := WeightedJaccardIDSets(a, b, nil), JaccardIDSets(a, b); got != want {
		t.Fatalf("nil weighter %g != plain %g", got, want)
	}
	// Symmetry and range under weighting.
	idf := func(id uint32) float64 {
		if id == shared {
			return 0.2
		}
		return 1
	}
	s1, s2 := WeightedJaccardIDSets(a, b, idf), WeightedJaccardIDSets(b, a, idf)
	if math.Abs(s1-s2) > 1e-12 {
		t.Fatalf("asymmetric: %g vs %g", s1, s2)
	}
	if s1 <= 0 || s1 > 1 {
		t.Fatalf("weighted score out of range: %g", s1)
	}
	if WeightedJaccardIDSets(nil, b, idf) != 0 || WeightedJaccardIDSets(a, nil, idf) != 0 {
		t.Fatal("empty side must yield 0")
	}
	zeroA := countVec(map[event.Entity]int{"A": 0, "B": 1})
	zeroB := countVec(map[event.Entity]int{"B": 1, "C": 0})
	if got := WeightedJaccardIDSets(zeroA, zeroB, idf); math.Abs(got-1) > 1e-12 {
		t.Fatalf("zero-count entries not ignored: %g", got)
	}
}

func TestAdaptiveWeighting(t *testing.T) {
	w := DefaultWeights()
	scale := 24 * time.Hour
	st := event.NewStory(1, "s")
	st.Add(snip(1, "s", 10, []event.Entity{"A"}, event.Term{Token: "x", Weight: 1}))

	// Snippet with no entities: entity component dropped, description and
	// temporal renormalised — a perfect description match at the same time
	// must score high, not be capped by the missing entity evidence.
	noEnt := &event.Snippet{ID: 2, Source: "s", Timestamp: day(10),
		Terms: []event.Term{{Token: "x", Weight: 1}}}
	noEnt.Normalize()
	got := SnippetStoryIDs(noEnt, st.EntityFreq, st.Centroid, st.CentroidNorm(), day(10), scale, w, nil)
	if got < 0.95 {
		t.Fatalf("entity-less perfect match scored %g", got)
	}
	// Snippet with no terms either: only temporal remains.
	bare := &event.Snippet{ID: 3, Source: "s", Timestamp: day(10)}
	got = SnippetStoryIDs(bare, st.EntityFreq, st.Centroid, st.CentroidNorm(), day(10), scale, w, nil)
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("temporal-only match scored %g", got)
	}
	// Snippets pairwise: one side entity-less.
	a := snip(4, "s", 10, []event.Entity{"A"}, event.Term{Token: "x", Weight: 1})
	b := &event.Snippet{ID: 5, Source: "s", Timestamp: day(10),
		Terms: []event.Term{{Token: "x", Weight: 1}}}
	b.Normalize()
	if got := Snippets(a, b, scale, w); got < 0.95 {
		t.Fatalf("pairwise adaptive score %g", got)
	}
}

func TestExtentGapDirections(t *testing.T) {
	cfg := DefaultStoryConfig()
	cfg.EvolutionBuckets = 0
	early := event.NewStory(1, "s")
	early.Add(snip(10, "s", 1, []event.Entity{"A"}, event.Term{Token: "x", Weight: 1}))
	late := event.NewStory(2, "t")
	late.Add(snip(11, "t", 20, []event.Entity{"A"}, event.Term{Token: "x", Weight: 1}))
	// Both directions produce the same gap decay.
	if s1, s2 := score(early, late, cfg), score(late, early, cfg); math.Abs(s1-s2) > 1e-9 {
		t.Fatalf("gap direction asymmetry: %g vs %g", s1, s2)
	}
}

// idfWeightReference is the IDF weight expression identification and
// alignment each computed before EntityIDF, copied verbatim: Weight must
// reproduce it bit for bit.
func idfWeightReference(c int32, total, distinct int) float64 {
	mean := 1.0
	if distinct > 0 {
		mean = float64(total) / float64(distinct)
	}
	return 1 / (1 + math.Log(1+float64(c)/mean))
}

// TestEntityIDFMatchesReference drives an EntityIDF with random ±delta
// sequences over symbols it has and has not seen, and requires its counts,
// total and weights to equal a map-based reference after every step. Now
// and then it tabulates the weights, sometimes from a shorter table into
// a longer table's storage: each tabulated weight must equal Weight at
// that instant bit for bit, and must keep reproducing that instant's
// reference while the counts move on, for the symbols past the table's
// end too, which weigh 1.
func TestEntityIDFMatchesReference(t *testing.T) {
	const syms = 300
	check := func(t *testing.T, step int, got *EntityIDF, ref map[uint32]int32) {
		t.Helper()
		total, distinct := 0, 0
		for _, c := range ref {
			total += int(c)
			if c > 0 {
				distinct++
			}
		}
		if got.Total() != total || got.distinct != distinct {
			t.Fatalf("step %d: total %d distinct %d, reference %d %d", step, got.Total(), got.distinct, total, distinct)
		}
		for e := uint32(0); e < syms; e++ {
			var c int32
			if int(e) < len(got.count) {
				c = got.count[e]
			}
			if c != ref[e] {
				t.Fatalf("step %d: count[%d] = %d, reference %d", step, e, c, ref[e])
			}
			if w, want := got.Weight(e), idfWeightReference(ref[e], total, distinct); math.Float64bits(w) != math.Float64bits(want) {
				t.Fatalf("step %d: Weight(%d) = %v, reference %v", step, e, w, want)
			}
		}
	}
	// tabulate returns src's table in dst's storage and the reference
	// weight of every symbol at this instant, checking the one against
	// Weight.
	tabulate := func(t *testing.T, step int, src *EntityIDF, dst IDFTable) (IDFTable, []float64) {
		t.Helper()
		tab := src.Tabulate(dst)
		if len(tab) != len(src.count) {
			t.Fatalf("step %d: table of %d weights over %d counts", step, len(tab), len(src.count))
		}
		want := make([]float64, syms+1)
		for e := range want {
			want[e] = src.Weight(uint32(e))
			if e < len(tab) && math.Float64bits(tab[e]) != math.Float64bits(want[e]) {
				t.Fatalf("step %d: tabulated weight %d = %v, Weight %v", step, e, tab[e], want[e])
			}
		}
		return tab, want
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var live, short EntityIDF
		short.Add(3, 2)
		ref := map[uint32]int32{}
		var tab IDFTable
		var frozen []float64
		tabs := 0
		for step := 0; step < 2000; step++ {
			// Mostly a small hot range, sometimes a far symbol that grows the
			// table; deltas of both signs drive counts into the clamp at zero.
			e := uint32(rng.Intn(20))
			if rng.Intn(10) == 0 {
				e = uint32(rng.Intn(syms))
			}
			delta := int32(rng.Intn(9) - 4)
			live.Add(e, delta)
			ref[e] = max(ref[e]+delta, 0)
			check(t, step, &live, ref)

			switch rng.Intn(50) {
			case 0: // a new epoch
				tab, frozen = tabulate(t, step, &live, tab)
				tabs++
			case 1: // a shorter table into a longer one's storage
				tab, frozen = tabulate(t, step, &short, tab)
			}
			if frozen == nil {
				continue
			}
			for e, want := range frozen {
				if w := tab.Weight(uint32(e)); math.Float64bits(w) != math.Float64bits(want) {
					t.Fatalf("step %d: table weight %d = %v, %v when tabulated", step, e, w, want)
				}
			}
			for _, e := range []uint32{uint32(len(tab)), syms * 2, math.MaxUint32} {
				if w := tab.Weight(e); w != 1 {
					t.Fatalf("step %d: symbol %d past the table's end (%d) weighs %v, want 1", step, e, len(tab), w)
				}
			}
		}
		if tabs == 0 || len(short.count) >= len(live.count) {
			t.Fatalf("seed %d: %d epochs tabulated, short table %d of %d symbols: the table cases are vacuous", seed, tabs, len(short.count), len(live.count))
		}
	}
}
