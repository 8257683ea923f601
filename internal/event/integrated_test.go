package event

import (
	"slices"
	"testing"
)

func buildMembers() (*Story, *Story) {
	a := NewStory(1, "nyt")
	a.Add(snip(1, "nyt", 17, []Entity{"UKR", "MAL"}, Term{"crash", 2}))
	a.Add(snip(2, "nyt", 18, []Entity{"UKR"}, Term{"investigation", 1}))
	b := NewStory(2, "wsj")
	b.Add(snip(3, "wsj", 17, []Entity{"UKR"}, Term{"crash", 1}, Term{"plane", 1}))
	return a, b
}

func TestIntegratedStoryBasics(t *testing.T) {
	a, b := buildMembers()
	is := NewIntegratedStory(10, []*Story{b, a}) // deliberately unsorted

	if len(is.Members) != 2 || is.Members[0].Source != "nyt" {
		t.Fatalf("members not sorted by source: %v", is.Members)
	}
	srcs := is.Sources()
	if len(srcs) != 2 || srcs[0] != "nyt" || srcs[1] != "wsj" {
		t.Errorf("Sources = %v", srcs)
	}
	if is.Len() != 3 {
		t.Errorf("Len = %d, want 3", is.Len())
	}
	sn := is.Snippets()
	if len(sn) != 3 {
		t.Fatalf("Snippets len = %d", len(sn))
	}
	for i := 1; i < len(sn); i++ {
		if sn[i].Timestamp.Before(sn[i-1].Timestamp) {
			t.Fatal("integrated snippets not chronological")
		}
	}
	start, end := is.Extent()
	if !start.Equal(ts(17)) || !end.Equal(ts(18)) {
		t.Errorf("Extent = %s..%s", start, end)
	}
}

func TestIntegratedAggregates(t *testing.T) {
	a, b := buildMembers()
	is := NewIntegratedStory(10, []*Story{a, b})
	ef := is.EntityFreq()
	if ef["UKR"] != 3 || ef["MAL"] != 1 {
		t.Errorf("EntityFreq = %v", ef)
	}
	cen := is.Centroid()
	if cen["crash"] != 3 || cen["plane"] != 1 {
		t.Errorf("Centroid = %v", cen)
	}
}

func TestIntegratedEmptyAndSingleton(t *testing.T) {
	a := NewStory(1, "nyt")
	a.Add(snip(1, "nyt", 17, []Entity{"A"}))
	is := NewIntegratedStory(1, []*Story{a})
	if got := is.Sources(); len(got) != 1 {
		t.Errorf("singleton Sources = %v", got)
	}
	empty := NewIntegratedStory(2, nil)
	if empty.Len() != 0 || len(empty.Snippets()) != 0 {
		t.Error("empty integrated story should have no snippets")
	}
	start, end := empty.Extent()
	if !start.IsZero() || !end.IsZero() {
		t.Error("empty extent should be zero")
	}
	if empty.String() == "" || is.String() == "" {
		t.Error("String renderings empty")
	}
}

func TestSnippetRoleString(t *testing.T) {
	cases := map[SnippetRole]string{
		RoleUnknown:    "unknown",
		RoleAligning:   "aligning",
		RoleEnriching:  "enriching",
		SnippetRole(9): "unknown",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", r, got, want)
		}
	}
}

// spreadMembers returns three stories of three sources holding n snippets
// between them, with interleaved and tied timestamps and IDs that fall as
// time rises.
func spreadMembers(n int) []*Story {
	srcs := []SourceID{"wsj", "nyt", "ft"}
	ms := make([]*Story, len(srcs))
	for i, src := range srcs {
		ms[i] = NewStory(StoryID(i+1), src)
	}
	for i := 0; i < n; i++ {
		ms[i%3].Add(snip(SnippetID(n-i), srcs[i%3], 1+i%20, []Entity{"UKR"}))
	}
	return ms
}

var sinkIntegrated *IntegratedStory

// TestIntegratedSnippetsAllocatesOnce pins Snippets to its result slice:
// it is sized up front and sorted without a closure or a swapper.
func TestIntegratedSnippetsAllocatesOnce(t *testing.T) {
	is := NewIntegratedStory(1, spreadMembers(200))
	var out []*Snippet
	if n := testing.AllocsPerRun(50, func() { out = is.Snippets() }); n != 1 {
		t.Fatalf("Snippets allocates %v times, want 1", n)
	}
	if len(out) != 200 || !slices.IsSortedFunc(out, CompareByTimestamp) {
		t.Fatalf("Snippets returned %d snippets, sorted %v", len(out), slices.IsSortedFunc(out, CompareByTimestamp))
	}
}

// TestNewIntegratedStoryAllocsIndependentOfSnippets pins the Roles map to
// its final size: building an integrated story and giving every member
// snippet a role, as the aligner does, allocates as often over 16 snippets
// as over 640 (both fit one map table, so the map never grows).
func TestNewIntegratedStoryAllocsIndependentOfSnippets(t *testing.T) {
	allocs := func(n int) float64 {
		ms := spreadMembers(n)
		return testing.AllocsPerRun(50, func() {
			is := NewIntegratedStory(1, ms)
			for _, m := range is.Members {
				for _, sn := range m.Snippets {
					is.Roles[sn.ID] = RoleAligning
				}
			}
			sinkIntegrated = is
		})
	}
	small, large := allocs(16), allocs(640)
	if small != large {
		t.Fatalf("NewIntegratedStory with roles allocates %v times over 16 snippets and %v over 640", small, large)
	}
	if m := sinkIntegrated.Members; m[0].Source != "ft" || m[1].Source != "nyt" || m[2].Source != "wsj" {
		t.Fatalf("members not sorted by source: %s, %s, %s", m[0].Source, m[1].Source, m[2].Source)
	}
}
