package index

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/datagen"
	"repro/internal/event"
	"repro/internal/retire"
	"repro/internal/stream"
)

// genDiff is the bookkeeping Publish did before it read the aligner's
// versions, kept as its oracle: every member of every integrated story is
// diffed against a table keyed on Story.Gen, and every entry the result
// no longer names is dropped.
type genDiff struct {
	stories map[event.StoryID]genEntry
	live    int
}

type genEntry struct {
	gen   uint64
	npost int32
}

// publish applies res and returns the members it rebuilt, skipped and
// removed.
func (g *genDiff) publish(res *align.Result) (updated, skipped, removed uint64) {
	seen := make(map[event.StoryID]bool, len(g.stories))
	for _, is := range res.Integrated {
		for _, m := range is.Members {
			seen[m.ID] = true
			e, ok := g.stories[m.ID]
			if ok && e.gen == m.Gen() {
				skipped++
				continue
			}
			if ok {
				g.live -= int(e.npost)
			}
			n := int32(len(m.EntityFreq) + len(m.Centroid))
			for _, sn := range m.Snippets {
				n += int32(len(sn.EntityIDs))
			}
			g.live += int(n)
			g.stories[m.ID] = genEntry{gen: m.Gen(), npost: n}
			updated++
		}
	}
	for id, e := range g.stories {
		if !seen[id] {
			g.live -= int(e.npost)
			delete(g.stories, id)
			removed++
		}
	}
	return updated, skipped, removed
}

// checkedIndex publishes every result to the index and to the oracle, and
// keeps the first publish whose states differ.
type checkedIndex struct {
	x    *Index
	want *genDiff
	prev map[event.IntegratedID]uint64 // the last publish's versions

	publishes, renewed, gone, removed int
	err                               error
}

func (c *checkedIndex) Publish(res *align.Result) {
	c.publishes++
	u0, s0, r0 := metStoriesUpdated.Value(), metStoriesSkipped.Value(), metStoriesRemoved.Value()
	c.x.Publish(res)
	got := [3]uint64{metStoriesUpdated.Value() - u0, metStoriesSkipped.Value() - s0, metStoriesRemoved.Value() - r0}
	u, s, r := c.want.publish(res)
	c.removed += int(r)

	next := make(map[event.IntegratedID]uint64, len(res.Integrated))
	for _, is := range res.Integrated {
		next[is.ID] = is.Version
		if v, ok := c.prev[is.ID]; ok && v != is.Version {
			c.renewed++
		}
	}
	for id := range c.prev {
		if _, ok := next[id]; !ok {
			c.gone++
		}
	}
	c.prev = next
	if c.err == nil {
		if err := c.compare(res, got, [3]uint64{u, s, r}); err != nil {
			c.err = fmt.Errorf("publish %d: %w", c.publishes, err)
		}
	}
}

func (c *checkedIndex) compare(res *align.Result, got, want [3]uint64) error {
	if got != want {
		return fmt.Errorf("updated/skipped/removed %v, the Gen diff %v", got, want)
	}
	wantStats := Stats{Stories: len(c.want.stories), LivePostings: c.want.live, Integrated: len(res.Integrated)}
	if s := c.x.Stats(); s != wantStats {
		return fmt.Errorf("stats %+v, the Gen diff %+v", s, wantStats)
	}
	held := 0
	for _, is := range c.x.slots {
		if is != nil {
			held++
		}
	}
	if held != len(res.Integrated) {
		return fmt.Errorf("%d slots held for %d integrated stories", held, len(res.Integrated))
	}
	// Built once per publish: Result.IntegratedOf walks every member.
	integratedOf := make(map[event.StoryID]*event.IntegratedStory)
	for _, is := range res.Integrated {
		for _, m := range is.Members {
			integratedOf[m.ID] = is
		}
	}
	for _, is := range res.Integrated {
		for _, m := range is.Members {
			e, want := c.x.stories[m.ID], c.want.stories[m.ID]
			if e == nil || e.st.Gen() != want.gen {
				return fmt.Errorf("story %d: entry %+v, the Gen diff %+v", m.ID, e, want)
			}
			if c.x.slots[e.slot] != integratedOf[m.ID] {
				return fmt.Errorf("story %d: slot %d holds another integrated story than %d", m.ID, e.slot, is.ID)
			}
		}
	}
	return nil
}

// snippetStore stands in for the event store a retirer's archive records
// point into: it holds every snippet of the stream and hands out copies.
type snippetStore []*event.Snippet

func (s snippetStore) Sync() error { return nil }

func (s snippetStore) Get(id event.SnippetID) *event.Snippet {
	for _, sn := range s {
		if sn.ID == id {
			return sn.Clone()
		}
	}
	return nil
}

// oracleStream drives a refinement-on engine with a retirement window
// over seed's generated stream into sink, removes a source three fifths
// of the way in, and fails the test on the first error failed reports
// after an ingest. It returns the snippet count and how many stories
// retired.
func oracleStream(t *testing.T, seed int64, sink stream.ResultSink, failed func() error) (snippets, retired int) {
	t.Helper()
	gen := datagen.DefaultConfig()
	gen.Seed, gen.Sources, gen.Stories, gen.EventsPerStory = seed, 5, 24, 10
	corpus := datagen.Generate(gen)

	opts := stream.DefaultOptions()
	opts.RefineOnAlign = true
	opts.AutoAlignEvery = 32
	e := stream.NewEngine(opts)
	mgr, err := retire.Open(retire.Config{
		Window:      16 * 24 * time.Hour,
		Dir:         t.TempDir(),
		IdentWindow: opts.Identify.Window,
		AlignSlack:  opts.Align.Slack,
	}, snippetStore(corpus.Snippets))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	e.SetRetirer(mgr)
	e.SetResultSink(sink)

	removeAt := len(corpus.Snippets) * 3 / 5
	for i, sn := range corpus.Snippets {
		if _, err := e.Ingest(sn); err != nil {
			t.Fatal(err)
		}
		if i == removeAt {
			if !e.RemoveSource(corpus.Snippets[0].Source) {
				t.Fatal("RemoveSource had nothing to remove")
			}
			e.Align()
		}
		if err := failed(); err != nil {
			t.Fatal(err)
		}
	}
	e.Align()
	if err := failed(); err != nil {
		t.Fatal(err)
	}
	return len(corpus.Snippets), int(mgr.Snapshot().Retired)
}

// TestPublishMatchesGenDiff drives refinement-on engines with a retirement
// window over generated streams, removes a source mid-stream, and requires
// the index's entries, slots, stats and counters to equal the Gen-diff
// oracle's after every publish.
func TestPublishMatchesGenDiff(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			x := New(Options{})
			c := &checkedIndex{x: x, want: &genDiff{stories: make(map[event.StoryID]genEntry)}}
			snippets, retired := oracleStream(t, seed, c, func() error { return c.err })
			t.Logf("%d snippets, %d publishes, %d integrated IDs renewed, %d gone, %d members removed, %d stories retired",
				snippets, c.publishes, c.renewed, c.gone, c.removed, retired)
			if c.renewed == 0 || c.gone == 0 || c.removed == 0 || retired == 0 {
				t.Fatal("no ID was renewed, none went, no member was removed or nothing retired: the comparison is vacuous")
			}
		})
	}
}

// rebuildChecked publishes every result to the index and keeps the first
// publish after which it differs from an index built from that result
// alone.
type rebuildChecked struct {
	x         *Index
	publishes int
	replaced  int // indexed snapshots a publish replaced or dropped
	err       error
}

func (r *rebuildChecked) Publish(res *align.Result) {
	r.publishes++
	indexed := make(map[event.StoryID]*event.Story, len(r.x.stories))
	for id, e := range r.x.stories {
		indexed[id] = e.st
	}
	r.x.Publish(res)
	for id, st := range indexed {
		if e := r.x.stories[id]; e == nil || e.st != st {
			r.replaced++
		}
	}
	fresh := New(Options{})
	fresh.Publish(res)
	if r.err == nil {
		if err := samePostings(r.x, fresh); err != nil {
			r.err = fmt.Errorf("publish %d: %w", r.publishes, err)
		}
	}
}

// samePostings compares an incrementally maintained index with one built
// from its last result alone: equal stats, the same entity and term lists,
// each equal as a multiset of (story, weight), and the same timeline
// segments, each equal. The rebuilt index holds no empty list, segment or
// timeline, so one the incremental index kept fails the comparison.
func samePostings(got, want *Index) error {
	if g, w := got.Stats(), want.Stats(); g != w {
		return fmt.Errorf("stats %+v, rebuilt %+v", g, w)
	}
	for _, lists := range []struct {
		kind      string
		got, want map[uint32][]post
	}{{"entity", got.ents, want.ents}, {"term", got.terms, want.terms}} {
		if len(lists.got) != len(lists.want) {
			return fmt.Errorf("%d %s lists, rebuilt %d", len(lists.got), lists.kind, len(lists.want))
		}
		for sym, list := range lists.want {
			g, w := sortedPosts(lists.got[sym]), sortedPosts(list)
			if !slices.Equal(g, w) {
				return fmt.Errorf("%s %d: postings %v, rebuilt %v", lists.kind, sym, g, w)
			}
		}
	}
	if len(got.timelines) != len(want.timelines) {
		return fmt.Errorf("%d entity timelines, rebuilt %d", len(got.timelines), len(want.timelines))
	}
	for eid, wtl := range want.timelines {
		gtl := got.timelines[eid]
		if gtl == nil || !slices.Equal(gtl.keys, wtl.keys) || len(gtl.buckets) != len(gtl.keys) {
			return fmt.Errorf("entity %d: timeline %+v, rebuilt %+v", eid, gtl, wtl)
		}
		for key, seg := range wtl.buckets {
			if g := gtl.buckets[key]; g == nil || !slices.Equal(g.posts, seg.posts) {
				return fmt.Errorf("entity %d bucket %d: timeline %v, rebuilt %v", eid, key, g, seg.posts)
			}
		}
	}
	return nil
}

func sortedPosts(list []post) []post {
	out := slices.Clone(list)
	slices.SortFunc(out, func(a, b post) int {
		if c := cmp.Compare(a.story, b.story); c != 0 {
			return c
		}
		return cmp.Compare(a.w, b.w)
	})
	return out
}

// TestPublishMatchesRebuild drives the oracle streams (refinement,
// retirement, a mid-stream source removal) and requires the index, after
// every publish, to hold exactly the postings an index built from that
// result alone holds: a publish deletes everything the versions it
// replaces had posted, and nothing else.
func TestPublishMatchesRebuild(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := &rebuildChecked{x: New(Options{})}
			oracleStream(t, seed, r, func() error { return r.err })
			t.Logf("%d publishes replaced or dropped %d indexed snapshots", r.publishes, r.replaced)
			if r.replaced == 0 {
				t.Fatal("no publish deleted postings: the comparison is vacuous")
			}
		})
	}
}
