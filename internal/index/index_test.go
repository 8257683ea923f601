package index_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/stream"
)

// harness builds a two-source engine feeding an index through the
// result-sink hook, with deterministic topical snippets.
type harness struct {
	t      *testing.T
	eng    *stream.Engine
	idx    *index.Index
	nextID event.SnippetID
	base   time.Time
}

func newHarness(t *testing.T, opts index.Options) *harness {
	h := &harness{
		t:      t,
		eng:    stream.NewEngine(stream.DefaultOptions()),
		idx:    index.New(opts),
		nextID: 1,
		base:   time.Date(2014, 7, 17, 0, 0, 0, 0, time.UTC),
	}
	h.eng.SetResultSink(h.idx)
	return h
}

// add ingests one snippet with the given topical signature at an
// hour-offset timestamp.
func (h *harness) add(src event.SourceID, hour int, ents []event.Entity, toks ...string) {
	h.t.Helper()
	sn := &event.Snippet{
		ID:        h.nextID,
		Source:    src,
		Timestamp: h.base.Add(time.Duration(hour) * time.Hour),
		Entities:  append([]event.Entity(nil), ents...),
	}
	for _, tok := range toks {
		sn.Terms = append(sn.Terms, event.Term{Token: tok, Weight: 1})
	}
	h.nextID++
	sn.Normalize()
	if _, err := h.eng.Ingest(sn); err != nil {
		h.t.Fatal(err)
	}
}

var (
	crashEnts  = []event.Entity{"MAL", "UKR"}
	soccerEnts = []event.Entity{"FIFA", "GER"}
)

func (h *harness) seed() {
	for i := 0; i < 4; i++ {
		h.add("nyt", i, crashEnts, "crash", "plane")
		h.add("wsj", i, crashEnts, "crash", "missile")
		h.add("nyt", i, soccerEnts, "final", "goal")
	}
}

// TestPublishDelta verifies the delta protocol: republishing an
// unchanged result costs no postings and no allocations, mutating one
// story replaces its postings, and removing a source deletes its
// stories' entries and postings.
func TestPublishDelta(t *testing.T) {
	h := newHarness(t, index.Options{})
	h.seed()
	// Unrelated one-snippet stories, enough that a map sized by the
	// corpus would not fit on the stack.
	for i := 0; i < 16; i++ {
		h.add("nyt", 10*i, []event.Entity{event.Entity(fmt.Sprintf("TOPIC%d", i))}, fmt.Sprintf("topic%d", i))
	}
	h.eng.Result() // publish
	s0 := h.idx.Stats()
	if s0.Stories == 0 || s0.LivePostings == 0 || s0.Integrated == 0 {
		t.Fatalf("empty index after publish: %+v", s0)
	}
	epoch := h.idx.Epoch()

	// Re-align with nothing changed: every integrated story keeps its
	// version, so the publish touches nothing.
	h.eng.Align()
	if got := h.idx.Epoch(); got != epoch+1 {
		t.Fatalf("epoch = %d, want %d", got, epoch+1)
	}
	if s := h.idx.Stats(); s != s0 {
		t.Fatalf("no-op publish changed stats: %+v -> %+v", s0, s)
	}
	// Republishing the same result meets every version as it was: the
	// walk reuses its buffers and allocates nothing.
	res := h.eng.Result()
	if allocs := testing.AllocsPerRun(20, func() { h.idx.Publish(res) }); allocs != 0 {
		t.Fatalf("republishing an unchanged result: %v allocs, want 0", allocs)
	}
	if s := h.idx.Stats(); s != s0 {
		t.Fatalf("republishing changed stats: %+v -> %+v", s0, s)
	}

	// Mutate one story: its old postings give way to the new snapshot's,
	// one snippet more; the rest of the corpus is untouched.
	h.add("nyt", 5, crashEnts, "crash", "wreckage")
	h.eng.Result()
	s1 := h.idx.Stats()
	if s1.LivePostings <= s0.LivePostings {
		t.Fatalf("mutation did not grow the postings: %+v -> %+v", s0, s1)
	}
	if s1.Stories != s0.Stories {
		t.Fatalf("stories = %d, want %d", s1.Stories, s0.Stories)
	}

	// Remove a source: its stories leave the entry table and their
	// postings the lists; queries answer from the rest.
	if !h.eng.RemoveSource("wsj") {
		t.Fatal("RemoveSource found nothing")
	}
	h.eng.Result()
	s2 := h.idx.Stats()
	if s2.Stories >= s1.Stories {
		t.Fatalf("stories after removal = %d, want < %d", s2.Stories, s1.Stories)
	}
	if s2.LivePostings >= s1.LivePostings {
		t.Fatalf("removal deleted no postings: %+v -> %+v", s1, s2)
	}
	if got, total, _ := h.idx.StoriesByEntity("MAL", 0, -1); total == 0 || len(got) != total {
		t.Fatalf("query after removal broken: %d hits, total %d", len(got), total)
	}
	got, total, _ := h.idx.Timeline("UKR", 0, -1)
	if total == 0 || len(got) != total {
		t.Fatalf("timeline after removal broken: %d hits, total %d", len(got), total)
	}
	for _, sn := range got {
		if sn.Source == "wsj" {
			t.Fatalf("timeline still serves snippet %d of the removed source", sn.ID)
		}
	}
	// Publishing nil is a no-op.
	before := h.idx.Epoch()
	h.idx.Publish(nil)
	if h.idx.Epoch() != before {
		t.Fatal("Publish(nil) bumped the epoch")
	}
}

// tieStory builds a one-snippet story mentioning MAL and "crash", so any
// two of them score the same on both queries.
func tieStory(id event.StoryID, src event.SourceID, sn event.SnippetID) *event.Story {
	st := event.NewStory(id, src)
	s := &event.Snippet{
		ID:        sn,
		Source:    src,
		Timestamp: time.Date(2014, 7, 17, int(sn), 0, 0, 0, time.UTC),
		Entities:  []event.Entity{"MAL"},
		Terms:     []event.Term{{Token: "crash", Weight: 1}},
	}
	s.Normalize()
	st.Add(s)
	return st
}

// TestTiesRankByIntegratedID publishes two integrated stories that tie on
// score, where the lower ID takes the later slot: it is published after
// the higher one, whose version is kept. Both ranked queries must order
// them by ascending ID, paged or not.
func TestTiesRankByIntegratedID(t *testing.T) {
	idx := index.New(index.Options{})
	high := event.NewIntegratedStory(5, []*event.Story{tieStory(5, "nyt", 1)})
	high.Version = 1
	low := event.NewIntegratedStory(3, []*event.Story{tieStory(3, "wsj", 2)})
	low.Version = 2
	idx.Publish(&align.Result{Integrated: []*event.IntegratedStory{high}})
	idx.Publish(&align.Result{Integrated: []*event.IntegratedStory{low, high}})

	for _, tc := range []struct {
		name string
		run  func(limit int) []*event.IntegratedStory
	}{
		{"Search", func(limit int) []*event.IntegratedStory { got, _, _ := idx.Search("crash", 0, limit); return got }},
		{"StoriesByEntity", func(limit int) []*event.IntegratedStory {
			got, _, _ := idx.StoriesByEntity("MAL", 0, limit)
			return got
		}},
	} {
		if got := tc.run(-1); len(got) != 2 || got[0] != low || got[1] != high {
			t.Errorf("%s: got %v, want integrated stories 3 then 5", tc.name, got)
		}
		if got := tc.run(1); len(got) != 1 || got[0] != low {
			t.Errorf("%s top 1: got %v, want integrated story 3", tc.name, got)
		}
	}
}

// TestPaginationBounds exercises the paging edge cases of all three
// queries directly against the index.
func TestPaginationBounds(t *testing.T) {
	h := newHarness(t, index.Options{})
	h.seed()
	h.eng.Result()

	full, total, _ := h.idx.Timeline("MAL", 0, -1)
	if total == 0 || len(full) != total {
		t.Fatalf("timeline: %d of %d", len(full), total)
	}
	for _, tc := range []struct {
		name           string
		offset, limit  int
		wantLen, wantT int
	}{
		{"window", 1, 2, 2, total},
		{"zero-limit", 0, 0, 0, total},
		{"beyond-end", total + 5, 3, 0, total},
		{"clamped-tail", total - 1, 10, 1, total},
		{"negative-offset", -3, 2, 2, total},
	} {
		got, gotT, _ := h.idx.Timeline("MAL", tc.offset, tc.limit)
		if len(got) != tc.wantLen || gotT != tc.wantT {
			t.Errorf("timeline %s: %d items total %d, want %d/%d",
				tc.name, len(got), gotT, tc.wantLen, tc.wantT)
		}
	}
	// Ranked queries: the paged window is the same slice of the full
	// ranking.
	fullHits, ht, _ := h.idx.StoriesByEntity("MAL", 0, -1)
	if ht == 0 {
		t.Fatal("no entity hits")
	}
	page, _, _ := h.idx.StoriesByEntity("MAL", 0, 1)
	if len(page) != 1 || page[0] != fullHits[0] {
		t.Fatalf("top-1 page != head of full ranking")
	}
	// Misses and empty queries.
	if got, total, _ := h.idx.StoriesByEntity("NOPE", 0, -1); len(got) != 0 || total != 0 {
		t.Fatalf("miss: %d/%d", len(got), total)
	}
	if got, total, _ := h.idx.Search("", 0, -1); got == nil || len(got) != 0 || total != 0 {
		t.Fatalf("empty query: %v/%d", got, total)
	}
	if got, total, _ := h.idx.Timeline("NOPE", 0, -1); got == nil || len(got) != 0 || total != 0 {
		t.Fatalf("timeline miss must be empty, not nil: %v/%d", got, total)
	}
	if got, total, _ := h.idx.Search("crash", 0, 0); len(got) != 0 || total == 0 {
		t.Fatalf("zero-limit search: %d/%d", len(got), total)
	}
}
