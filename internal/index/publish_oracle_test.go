package index

import (
	"fmt"
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
	opts        Options
	stories     map[event.StoryID]genEntry
	live, stale int
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
				g.stale += int(e.npost)
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
			g.stale += int(e.npost)
			g.live -= int(e.npost)
			delete(g.stories, id)
			removed++
		}
	}
	if g.stale >= g.opts.SweepMinStale && float64(g.stale) >= g.opts.SweepRatio*float64(g.live) {
		g.stale = 0 // Publish sweeps inline
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
	wantStats := Stats{Stories: len(c.want.stories), LivePostings: c.want.live,
		StalePostings: c.want.stale, Integrated: len(res.Integrated)}
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
			if e == nil || e.gen != want.gen || e.npost != want.npost {
				return fmt.Errorf("story %d: entry %+v, the Gen diff %+v", m.ID, e, want)
			}
			if c.x.slots[e.slot] != integratedOf[m.ID] {
				return fmt.Errorf("story %d: slot %d holds another integrated story than %d", m.ID, e.slot, is.ID)
			}
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
	})
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
			c := &checkedIndex{x: x, want: &genDiff{opts: x.opts, stories: make(map[event.StoryID]genEntry)}}
			snippets, retired := oracleStream(t, seed, c, func() error { return c.err })
			t.Logf("%d snippets, %d publishes, %d integrated IDs renewed, %d gone, %d members removed, %d stories retired",
				snippets, c.publishes, c.renewed, c.gone, c.removed, retired)
			if c.renewed == 0 || c.gone == 0 || c.removed == 0 || retired == 0 {
				t.Fatal("no ID was renewed, none went, no member was removed or nothing retired: the comparison is vacuous")
			}
		})
	}
}
