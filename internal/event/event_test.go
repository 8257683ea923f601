package event

import (
	"slices"
	"testing"
	"time"

	"repro/internal/vocab"
)

func ts(day int) time.Time {
	return time.Date(2014, time.July, day, 0, 0, 0, 0, time.UTC)
}

// entityFreqMap renders a story's entity frequencies keyed by entity
// string, through the same TopEntities the display panels use.
func entityFreqMap(st *Story) map[Entity]int {
	out := make(map[Entity]int)
	for _, ec := range st.TopEntities(0) {
		out[ec.Entity] = ec.Count
	}
	return out
}

func snip(id SnippetID, src SourceID, day int, ents []Entity, terms ...Term) *Snippet {
	s := &Snippet{ID: id, Source: src, Timestamp: ts(day), Entities: ents, Terms: terms}
	s.Normalize()
	return s
}

func TestSnippetValidate(t *testing.T) {
	valid := snip(1, "nyt", 17, []Entity{"UKR"}, Term{"crash", 1})
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid snippet rejected: %v", err)
	}
	cases := []struct {
		name string
		s    *Snippet
		want error
	}{
		{"no source", &Snippet{Timestamp: ts(1), Entities: []Entity{"A"}}, ErrNoSource},
		{"no timestamp", &Snippet{Source: "nyt", Entities: []Entity{"A"}}, ErrNoTimestamp},
		{"empty content", &Snippet{Source: "nyt", Timestamp: ts(1)}, ErrEmpty},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.s.Validate(); err != c.want {
				t.Errorf("Validate() = %v, want %v", err, c.want)
			}
		})
	}
}

func TestSnippetNormalize(t *testing.T) {
	s := &Snippet{
		Source:    "nyt",
		Timestamp: ts(17),
		Entities:  []Entity{"UKR", "MAL", "UKR", "RUS", "MAL"},
		Terms: []Term{
			{"plane", 1.0}, {"crash", 2.0}, {"plane", 0.5},
		},
	}
	s.Normalize()
	wantEnts := []Entity{"MAL", "RUS", "UKR"}
	if len(s.Entities) != len(wantEnts) {
		t.Fatalf("entities = %v, want %v", s.Entities, wantEnts)
	}
	for i, e := range wantEnts {
		if s.Entities[i] != e {
			t.Errorf("entities[%d] = %q, want %q", i, s.Entities[i], e)
		}
	}
	if len(s.Terms) != 2 {
		t.Fatalf("terms = %v, want 2 merged terms", s.Terms)
	}
	if s.Terms[0].Token != "crash" || s.Terms[0].Weight != 2.0 {
		t.Errorf("terms[0] = %+v, want crash/2.0", s.Terms[0])
	}
	if s.Terms[1].Token != "plane" || s.Terms[1].Weight != 1.5 {
		t.Errorf("terms[1] = %+v, want plane/1.5", s.Terms[1])
	}
}

func TestSnippetNormalizeIdempotent(t *testing.T) {
	s := snip(1, "nyt", 17, []Entity{"B", "A", "B"}, Term{"x", 1}, Term{"a", 2})
	before := s.Clone()
	s.Normalize()
	if len(s.Entities) != len(before.Entities) || len(s.Terms) != len(before.Terms) {
		t.Fatalf("second Normalize changed snippet: %+v vs %+v", s, before)
	}
}

func TestHasEntity(t *testing.T) {
	s := snip(1, "nyt", 17, []Entity{"MAL", "RUS", "UKR"})
	for _, e := range []Entity{"MAL", "RUS", "UKR"} {
		if !s.HasEntity(e) {
			t.Errorf("HasEntity(%q) = false, want true", e)
		}
	}
	for _, e := range []Entity{"", "A", "ZZZ", "NTH"} {
		if s.HasEntity(e) {
			t.Errorf("HasEntity(%q) = true, want false", e)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := snip(1, "nyt", 17, []Entity{"UKR"}, Term{"crash", 1})
	c := s.Clone()
	c.Entities[0] = "XXX"
	c.Terms[0].Weight = 99
	if s.Entities[0] != "UKR" || s.Terms[0].Weight != 1 {
		t.Fatal("Clone shares backing arrays with original")
	}
}

func TestByTimestampOrdering(t *testing.T) {
	a := snip(2, "nyt", 17, []Entity{"A"})
	b := snip(1, "nyt", 17, []Entity{"A"}) // same time, lower ID
	c := snip(3, "nyt", 16, []Entity{"A"})
	if CompareByTimestamp(c, a) >= 0 {
		t.Error("earlier timestamp should compare lower")
	}
	if CompareByTimestamp(b, a) >= 0 {
		t.Error("same timestamp: lower ID should compare lower")
	}
	if CompareByTimestamp(a, b) <= 0 {
		t.Error("same timestamp: higher ID should compare higher")
	}
	if CompareByTimestamp(a, a) != 0 {
		t.Error("a snippet should compare equal to itself")
	}
	got := []*Snippet{a, b, c}
	slices.SortFunc(got, CompareByTimestamp)
	if got[0] != c || got[1] != b || got[2] != a {
		t.Errorf("sorted order = %v, want c, b, a", got)
	}
}

func TestStoryAddMaintainsOrderAndAggregates(t *testing.T) {
	st := NewStory(1, "nyt")
	st.Add(snip(3, "nyt", 20, []Entity{"UKR", "RUS"}, Term{"sanctions", 1}))
	st.Add(snip(1, "nyt", 17, []Entity{"UKR", "MAL"}, Term{"crash", 2}))
	st.Add(snip(2, "nyt", 18, []Entity{"UKR"}, Term{"crash", 1}, Term{"investigation", 1}))

	if st.Len() != 3 {
		t.Fatalf("Len = %d, want 3", st.Len())
	}
	for i := 1; i < st.Len(); i++ {
		if st.Snippets[i].Timestamp.Before(st.Snippets[i-1].Timestamp) {
			t.Fatal("snippets not chronological after out-of-order Add")
		}
	}
	ef, cen := entityFreqMap(st), st.CentroidMap()
	if ef["UKR"] != 3 || ef["MAL"] != 1 || ef["RUS"] != 1 {
		t.Errorf("EntityFreq = %v", ef)
	}
	if cen["crash"] != 3 || cen["sanctions"] != 1 {
		t.Errorf("Centroid = %v", cen)
	}
	if !st.Start.Equal(ts(17)) || !st.End.Equal(ts(20)) {
		t.Errorf("extent = %s..%s, want 17..20", st.Start, st.End)
	}
}

func TestStoryAddWrongSourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with wrong source did not panic")
		}
	}()
	st := NewStory(1, "nyt")
	st.Add(snip(1, "wsj", 17, []Entity{"A"}))
}

func TestStoryRemove(t *testing.T) {
	st := NewStory(1, "nyt")
	st.Add(snip(1, "nyt", 17, []Entity{"UKR", "MAL"}, Term{"crash", 2}))
	st.Add(snip(2, "nyt", 20, []Entity{"UKR"}, Term{"report", 1}))

	if !st.Remove(1) {
		t.Fatal("Remove(1) = false, want true")
	}
	if st.Remove(1) {
		t.Fatal("second Remove(1) = true, want false")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
	ef, cen := entityFreqMap(st), st.CentroidMap()
	if _, ok := ef["MAL"]; ok {
		t.Error("MAL frequency not cleaned up")
	}
	if ef["UKR"] != 1 {
		t.Errorf("UKR freq = %d, want 1", ef["UKR"])
	}
	if _, ok := cen["crash"]; ok {
		t.Error("crash term not cleaned up")
	}
	if !st.Start.Equal(ts(20)) || !st.End.Equal(ts(20)) {
		t.Errorf("extent after removal = %s..%s, want 20..20", st.Start, st.End)
	}
}

func TestStoryRemoveMissing(t *testing.T) {
	st := NewStory(1, "nyt")
	if st.Remove(42) {
		t.Fatal("Remove on empty story = true")
	}
}

func TestCentroidNormCaching(t *testing.T) {
	st := NewStory(1, "nyt")
	st.Add(snip(1, "nyt", 17, []Entity{"A"}, Term{"x", 3}, Term{"y", 4}))
	if got := st.CentroidNorm(); got != 5 {
		t.Fatalf("CentroidNorm = %g, want 5", got)
	}
	// Second call hits the cache.
	if got := st.CentroidNorm(); got != 5 {
		t.Fatalf("cached CentroidNorm = %g, want 5", got)
	}
	st.Add(snip(2, "nyt", 18, []Entity{"A"}, Term{"x", 3}))
	if got := st.CentroidNorm(); got == 5 {
		t.Fatal("CentroidNorm not invalidated by Add")
	}
}

func TestWindowSnippets(t *testing.T) {
	st := NewStory(1, "nyt")
	for day := 10; day <= 20; day++ {
		st.Add(snip(SnippetID(day), "nyt", day, []Entity{"A"}))
	}
	got := st.WindowSnippets(ts(13), ts(16))
	if len(got) != 4 {
		t.Fatalf("window [13,16] returned %d snippets, want 4", len(got))
	}
	if got[0].ID != 13 || got[3].ID != 16 {
		t.Errorf("window bounds wrong: %v..%v", got[0].ID, got[3].ID)
	}
	if got := st.WindowSnippets(ts(25), ts(30)); got != nil {
		t.Errorf("empty window returned %d snippets", len(got))
	}
	if got := st.WindowSnippets(ts(16), ts(13)); got != nil {
		t.Errorf("inverted window returned %d snippets", len(got))
	}
}

func TestWindowedCentroid(t *testing.T) {
	st := NewStory(1, "nyt")
	st.Add(snip(1, "nyt", 10, []Entity{"A"}, Term{"old", 5}))
	st.Add(snip(2, "nyt", 20, []Entity{"B"}, Term{"new", 2}))
	cen, ents := st.AppendWindowedCentroidIDs(ts(15), ts(25), nil, nil)
	if len(cen) != 1 || vocab.Terms.String(cen[0].ID) != "new" || cen[0].W != 2 {
		t.Errorf("windowed centroid = %v", cen)
	}
	if len(ents) != 1 || vocab.Entities.String(ents[0].ID) != "B" || ents[0].N != 1 {
		t.Errorf("windowed entities = %v", ents)
	}
	// The buffers are reused: a second window into the emptied slices
	// replaces, not accumulates.
	cen, ents = st.AppendWindowedCentroidIDs(ts(5), ts(12), cen[:0], ents[:0])
	if len(cen) != 1 || vocab.Terms.String(cen[0].ID) != "old" || cen[0].W != 5 {
		t.Errorf("reused-buffer centroid = %v", cen)
	}
	if len(ents) != 1 || vocab.Entities.String(ents[0].ID) != "A" {
		t.Errorf("reused-buffer entities = %v", ents)
	}
}

func TestTopEntitiesAndTerms(t *testing.T) {
	st := NewStory(1, "nyt")
	st.Add(snip(1, "nyt", 17, []Entity{"UKR", "MAL"}, Term{"crash", 3}, Term{"plane", 3}))
	st.Add(snip(2, "nyt", 18, []Entity{"UKR"}, Term{"shot", 2}))

	ents := st.TopEntities(0)
	if len(ents) != 2 || ents[0].Entity != "UKR" || ents[0].Count != 2 {
		t.Errorf("TopEntities = %v", ents)
	}
	if top1 := st.TopEntities(1); len(top1) != 1 {
		t.Errorf("TopEntities(1) len = %d", len(top1))
	}
	terms := st.TopTerms(0)
	// crash and plane tie at 3; alphabetical tiebreak puts crash first.
	if terms[0].Token != "crash" || terms[1].Token != "plane" || terms[2].Token != "shot" {
		t.Errorf("TopTerms order = %v", terms)
	}
}

// TestStoryGenAdvances pins the mutation-counter contract: a remove+add
// pair that leaves the length unchanged must still advance Gen, since
// content-keyed caches (the identification window aggregates) rely on it.
func TestStoryGenAdvances(t *testing.T) {
	st := NewStory(1, "nyt")
	st.Add(snip(1, "nyt", 17, []Entity{"A"}, Term{"x", 1}))
	st.Add(snip(2, "nyt", 18, []Entity{"B"}, Term{"y", 1}))
	g := st.Gen()
	st.Remove(1)
	st.Add(snip(3, "nyt", 17, []Entity{"C"}, Term{"z", 1}))
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	if st.Gen() == g {
		t.Fatal("Gen unchanged across same-length remove+add")
	}
	if st.Snapshot().Gen() != st.Gen() {
		t.Fatal("Snapshot does not carry Gen")
	}
}

func TestStoryOverlaps(t *testing.T) {
	a := NewStory(1, "nyt")
	a.Add(snip(1, "nyt", 10, []Entity{"A"}))
	a.Add(snip(2, "nyt", 15, []Entity{"A"}))
	b := NewStory(2, "wsj")
	b.Add(snip(3, "wsj", 14, []Entity{"A"}))
	b.Add(snip(4, "wsj", 20, []Entity{"A"}))
	c := NewStory(3, "wsj")
	c.Add(snip(5, "wsj", 25, []Entity{"A"}))

	if !a.Overlaps(b, 0) {
		t.Error("overlapping stories reported disjoint")
	}
	if a.Overlaps(c, 0) {
		t.Error("disjoint stories reported overlapping")
	}
	// With enough slack the gap (15 -> 25) closes.
	if !a.Overlaps(c, 10*24*time.Hour) {
		t.Error("slack did not close the gap")
	}
	empty := NewStory(4, "nyt")
	if a.Overlaps(empty, time.Hour) || empty.Overlaps(a, time.Hour) {
		t.Error("empty story must not overlap anything")
	}
}

func TestStringRenderings(t *testing.T) {
	s := snip(7, "nyt", 17, []Entity{"UKR"})
	if got := s.String(); got == "" {
		t.Error("Snippet.String empty")
	}
	st := NewStory(3, "nyt")
	st.Add(s)
	if got := st.String(); got == "" {
		t.Error("Story.String empty")
	}
}
