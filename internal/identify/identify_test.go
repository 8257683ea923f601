package identify

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/event"
)

func day(d int) time.Time { return time.Date(2014, 7, d, 0, 0, 0, 0, time.UTC) }

func snip(id event.SnippetID, src event.SourceID, d int, ents []event.Entity, toks ...string) *event.Snippet {
	s := &event.Snippet{ID: id, Source: src, Timestamp: day(d), Entities: ents}
	for _, tok := range toks {
		s.Terms = append(s.Terms, event.Term{Token: tok, Weight: 1})
	}
	s.Normalize()
	return s
}

func TestProcessGroupsRelatedSnippets(t *testing.T) {
	cfg := DefaultConfig()
	id := New("nyt", cfg, nil)

	crash := []event.Entity{"UKR", "MAL"}
	google := []event.Entity{"GOOG", "YELP"}

	a := id.Process(snip(1, "nyt", 17, crash, "crash", "plane", "shot"))
	b := id.Process(snip(2, "nyt", 18, crash, "crash", "investig", "plane"))
	c := id.Process(snip(3, "nyt", 18, google, "search", "antitrust", "content"))
	d := id.Process(snip(4, "nyt", 19, crash, "investig", "crash", "report"))

	if a != b || b != d {
		t.Fatalf("crash snippets scattered: %d %d %d", a, b, d)
	}
	if c == a {
		t.Fatal("unrelated snippet joined the crash story")
	}
	if id.StoryCount() != 2 {
		t.Fatalf("StoryCount = %d, want 2", id.StoryCount())
	}
	st := id.Story(a)
	if st.Len() != 3 {
		t.Fatalf("crash story has %d snippets", st.Len())
	}
	if id.StoryOf(3) != c {
		t.Fatal("StoryOf mismatch")
	}
	stats := id.Stats()
	if stats.Processed != 4 || stats.Created != 2 || stats.Attached != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestProcessWrongSourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for wrong source")
		}
	}()
	id := New("nyt", DefaultConfig(), nil)
	id.Process(snip(1, "wsj", 17, []event.Entity{"A"}, "x"))
}

func TestTemporalWindowExcludesDistantStories(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeTemporal
	cfg.Window = 3 * 24 * time.Hour
	cfg.RepairEvery = 0
	id := New("nyt", cfg, nil)

	ents := []event.Entity{"UKR"}
	first := id.Process(snip(1, "nyt", 1, ents, "protest", "squar"))
	// 20 days later, same entities, same-ish terms — outside the window,
	// must start a new story.
	second := id.Process(snip(2, "nyt", 21, ents, "protest", "squar"))
	if first == second {
		t.Fatal("temporal mode attached across a 20-day gap with ω=3d")
	}
	// Complete mode would have attached it.
	cfg.Mode = ModeComplete
	idC := New("nyt", cfg, nil)
	f := idC.Process(snip(1, "nyt", 1, ents, "protest", "squar"))
	s := idC.Process(snip(2, "nyt", 21, ents, "protest", "squar"))
	if f != s {
		t.Fatal("complete mode should chain across the gap (that is its failure mode)")
	}
}

func TestTemporalModeTracksEvolution(t *testing.T) {
	// A story whose vocabulary evolves: protests -> crimea -> fights.
	// Complete mode compares against the full history (diluted centroid);
	// temporal mode compares against the recent window. Both should keep
	// the chain here because adjacent phases share terms.
	cfg := DefaultConfig()
	cfg.RepairEvery = 0
	id := New("nyt", cfg, nil)
	ents := []event.Entity{"UKR"}
	ids := []event.StoryID{
		id.Process(snip(1, "nyt", 1, ents, "protest", "squar", "civilian")),
		id.Process(snip(2, "nyt", 3, ents, "protest", "crimea", "civilian")),
		id.Process(snip(3, "nyt", 6, ents, "crimea", "split", "militari")),
		id.Process(snip(4, "nyt", 9, ents, "militari", "fight", "donetsk")),
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[0] {
			t.Fatalf("evolution chain broken at %d: %v", i, ids)
		}
	}
}

func TestRepairSplitsGluedStories(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RepairEvery = 0 // manual repair
	cfg.AttachThreshold = 0.05
	cfg.SplitThreshold = 0.5
	id := New("nyt", cfg, nil)

	// Force two unrelated snippet groups into one story via a tiny attach
	// threshold, then verify Repair pulls them apart.
	first := id.Process(snip(1, "nyt", 1, []event.Entity{"UKR"}, "crash", "plane"))
	id.Process(snip(2, "nyt", 1, []event.Entity{"UKR"}, "crash", "plane"))
	id.Process(snip(3, "nyt", 2, []event.Entity{"GOOG"}, "search", "antitrust"))
	id.Process(snip(4, "nyt", 2, []event.Entity{"GOOG"}, "search", "antitrust"))
	if id.StoryCount() != 1 {
		t.Skipf("setup did not glue stories (count=%d)", id.StoryCount())
	}
	id.Repair()
	if id.StoryCount() != 2 {
		t.Fatalf("after repair StoryCount = %d, want 2", id.StoryCount())
	}
	// The original ID survives on the larger (here: equal, first) part.
	if id.Story(first) == nil {
		t.Fatal("original story ID vanished")
	}
	if id.Stats().Splits == 0 {
		t.Fatal("split not counted")
	}
	// Assignment stays consistent.
	if id.StoryOf(1) == id.StoryOf(3) {
		t.Fatal("assignment not updated by split")
	}
}

func TestRepairMergesConvergedStories(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RepairEvery = 0
	cfg.AttachThreshold = 0.95 // force every snippet into its own story
	cfg.MergeThreshold = 0.5
	id := New("nyt", cfg, nil)
	ents := []event.Entity{"UKR", "MAL"}
	id.Process(snip(1, "nyt", 17, ents, "crash", "plane"))
	id.Process(snip(2, "nyt", 17, ents, "crash", "plane"))
	if id.StoryCount() != 2 {
		t.Skipf("setup produced %d stories", id.StoryCount())
	}
	id.Repair()
	if id.StoryCount() != 1 {
		t.Fatalf("after repair StoryCount = %d, want 1", id.StoryCount())
	}
	if id.Stats().Merges == 0 {
		t.Fatal("merge not counted")
	}
	if id.StoryOf(1) != id.StoryOf(2) {
		t.Fatal("assignment not updated by merge")
	}
}

func TestMoveSnippet(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RepairEvery = 0
	id := New("nyt", cfg, nil)
	a := id.Process(snip(1, "nyt", 17, []event.Entity{"UKR"}, "crash", "plane"))
	b := id.Process(snip(2, "nyt", 18, []event.Entity{"GOOG"}, "search", "antitrust"))
	if a == b {
		t.Fatal("setup: expected two stories")
	}
	if !id.Move(1, b) {
		t.Fatal("Move failed")
	}
	if id.StoryOf(1) != b {
		t.Fatal("assignment not updated")
	}
	// Source story is empty now and dropped.
	if id.Story(a) != nil {
		t.Fatal("emptied story not dropped")
	}
	if got := len(id.Stories()); got != 1 {
		t.Fatalf("Stories() = %d", got)
	}
	// No-op moves.
	if id.Move(1, b) {
		t.Fatal("self-move should report false")
	}
	if id.Move(99, b) {
		t.Fatal("unknown snippet move should report false")
	}
}

func TestSketchIndexAgreesWithScan(t *testing.T) {
	c := datagen.Generate(datagen.Config{
		Seed: 3, Sources: 1, Stories: 6, Entities: 100, Vocab: 800,
		Start: day(1), Span: 60 * 24 * time.Hour, MeanStoryLife: 20 * 24 * time.Hour,
		EventsPerStory: 10, Phases: 2, PhaseOverlap: 0.5, Coverage: 1.0,
		MaxLag: time.Hour, EntitiesPer: 3, TermsPer: 8,
	})
	src := c.Sources[0]
	sns := c.BySource()[src]

	cfgScan := DefaultConfig()
	cfgScan.RepairEvery = 0
	cfgSketch := cfgScan
	cfgSketch.UseSketchIndex = true

	idScan := RunSource(src, sns, cfgScan, nil)
	idSketch := RunSource(src, sns, cfgSketch, nil)

	truth := eval.Assignment{}
	for id, l := range c.Truth {
		truth[id] = l
	}
	toAsg := func(id *Identifier) eval.Assignment {
		a := eval.Assignment{}
		for k, v := range id.Assignment() {
			a[k] = uint64(v)
		}
		return a
	}
	fScan := eval.Pairwise(toAsg(idScan), truth).F1
	fSketch := eval.Pairwise(toAsg(idSketch), truth).F1
	if fScan < 0.5 {
		t.Fatalf("scan identification F1 = %.3f too weak for the comparison", fScan)
	}
	if fSketch < fScan-0.25 {
		t.Fatalf("sketch index degraded F1 too much: scan %.3f vs sketch %.3f", fScan, fSketch)
	}
	// The sketch index must reduce similarity evaluations.
	if idSketch.Stats().Comparisons >= idScan.Stats().Comparisons {
		t.Fatalf("sketch comparisons %d >= scan %d", idSketch.Stats().Comparisons, idScan.Stats().Comparisons)
	}
}

func TestRunAllPartitionInvariants(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.Sources = 3
	cfg.Stories = 6
	cfg.EventsPerStory = 5
	c := datagen.Generate(cfg)

	ids := RunAll(c.Snippets, DefaultConfig(), nil)
	if len(ids) != 3 {
		t.Fatalf("identifiers for %d sources", len(ids))
	}
	// Invariant: every snippet appears in exactly one story of exactly its
	// own source, and story IDs are globally unique.
	seenStory := map[event.StoryID]event.SourceID{}
	seenSnip := map[event.SnippetID]bool{}
	for src, id := range ids {
		for _, st := range id.Stories() {
			if st.Source != src {
				t.Fatalf("story %d of source %s in identifier %s", st.ID, st.Source, src)
			}
			if owner, dup := seenStory[st.ID]; dup {
				t.Fatalf("story ID %d reused across %s and %s", st.ID, owner, src)
			}
			seenStory[st.ID] = src
			for _, sn := range st.Snippets {
				if seenSnip[sn.ID] {
					t.Fatalf("snippet %d in two stories", sn.ID)
				}
				seenSnip[sn.ID] = true
			}
		}
	}
	if len(seenSnip) != len(c.Snippets) {
		t.Fatalf("stories cover %d of %d snippets", len(seenSnip), len(c.Snippets))
	}
	// MergedAssignment covers everything.
	if got := len(MergedAssignment(ids)); got != len(c.Snippets) {
		t.Fatalf("MergedAssignment size = %d", got)
	}
	if got := len(StoriesBySource(ids)); got != 3 {
		t.Fatalf("StoriesBySource size = %d", got)
	}
}

func TestIdentificationQualityOnGroundTruth(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.Sources = 2
	cfg.Stories = 12
	cfg.EventsPerStory = 12
	c := datagen.Generate(cfg)

	ids := RunAll(c.Snippets, DefaultConfig(), nil)
	pred := eval.Assignment{}
	for k, v := range MergedAssignment(ids) {
		pred[k] = uint64(v)
	}
	// Per-source scoring: ground truth restricted per source, since
	// identification never links across sources.
	for src, id := range ids {
		inSrc := map[event.SnippetID]bool{}
		for _, st := range id.Stories() {
			for _, sn := range st.Snippets {
				inSrc[sn.ID] = true
			}
		}
		truth := eval.Assignment{}
		for sid, l := range c.Truth {
			if inSrc[sid] {
				truth[sid] = l
			}
		}
		sub := pred.Restrict(func(sid event.SnippetID) bool { return inSrc[sid] })
		f1 := eval.Pairwise(sub, truth).F1
		if f1 < 0.55 {
			t.Errorf("source %s identification F1 = %.3f, want >= 0.55", src, f1)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeTemporal.String() != "temporal" || ModeComplete.String() != "complete" {
		t.Fatal("Mode.String wrong")
	}
}

func TestIDAllocUnique(t *testing.T) {
	var a IDAlloc
	seen := map[event.StoryID]bool{}
	done := make(chan []event.StoryID, 4)
	for g := 0; g < 4; g++ {
		go func() {
			var got []event.StoryID
			for i := 0; i < 1000; i++ {
				got = append(got, a.Next())
			}
			done <- got
		}()
	}
	for g := 0; g < 4; g++ {
		for _, id := range <-done {
			if seen[id] {
				t.Fatalf("duplicate story ID %d", id)
			}
			seen[id] = true
		}
	}
}

func TestNearestTimestamp(t *testing.T) {
	st := event.NewStory(1, "s")
	for _, d := range []int{5, 10, 20} {
		st.Add(snip(event.SnippetID(d), "s", d, []event.Entity{"A"}, "x"))
	}
	cases := []struct{ probe, want int }{
		{1, 5}, {5, 5}, {7, 5}, {8, 10}, {14, 10}, {16, 20}, {25, 20},
	}
	for _, c := range cases {
		if got := nearestTimestamp(st, day(c.probe)); !got.Equal(day(c.want)) {
			t.Errorf("nearest(%d) = %v, want day %d", c.probe, got, c.want)
		}
	}
	empty := event.NewStory(2, "s")
	if got := nearestTimestamp(empty, day(3)); !got.Equal(day(3)) {
		t.Error("empty story nearest should echo probe")
	}
}

func BenchmarkProcessTemporal(b *testing.B) {
	benchmarkProcess(b, ModeTemporal)
}

func BenchmarkProcessComplete(b *testing.B) {
	benchmarkProcess(b, ModeComplete)
}

func benchmarkProcess(b *testing.B, mode Mode) {
	gen := datagen.DefaultConfig()
	gen.Sources = 1
	gen.Stories = 30
	gen.EventsPerStory = 40
	gen.Coverage = 1
	c := datagen.Generate(gen)
	src := c.Sources[0]
	sns := c.BySource()[src]
	cfg := DefaultConfig()
	cfg.Mode = mode
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := New(src, cfg, nil)
		for _, s := range sns {
			id.Process(s)
		}
	}
	b.ReportMetric(float64(len(sns)), "events/op")
}

func ExampleIdentifier() {
	id := New("nyt", DefaultConfig(), nil)
	s1 := snip(1, "nyt", 17, []event.Entity{"UKR", "MAL"}, "crash", "plane")
	s2 := snip(2, "nyt", 18, []event.Entity{"UKR"}, "crash", "investig")
	a := id.Process(s1)
	bID := id.Process(s2)
	fmt.Println(a == bID, id.StoryCount())
	// Output: true 1
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	complete := DefaultConfig()
	complete.Mode = ModeComplete
	complete.Window = 0
	if err := complete.Validate(); err != nil {
		t.Fatalf("complete mode with zero window rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Mode = Mode(9) },
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.AttachThreshold = 0 },
		func(c *Config) { c.AttachThreshold = 1.2 },
		func(c *Config) { c.TemporalScale = 0 },
		func(c *Config) { c.RepairEvery = -1 },
		func(c *Config) { c.SplitThreshold = 0 },
		func(c *Config) { c.MergeThreshold = 2 },
		func(c *Config) { c.UseSketchIndex = true; c.SketchBands = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSourceAccessorAndSketchFallbacks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseSketchIndex = true
	id := New("nyt", cfg, nil)
	if id.Source() != "nyt" {
		t.Fatal("Source accessor wrong")
	}
	// Entity-free snippets sketch on their description terms.
	s := &event.Snippet{ID: 1, Source: "nyt", Timestamp: day(1),
		Terms: []event.Term{{Token: "crash", Weight: 1}}}
	s.Normalize()
	id.Process(s)
	s2 := &event.Snippet{ID: 2, Source: "nyt", Timestamp: day(1),
		Terms: []event.Term{{Token: "crash", Weight: 1}}}
	s2.Normalize()
	if got := id.Process(s2); got != id.StoryOf(1) {
		t.Fatal("entity-free snippets did not group through the sketch index")
	}
}

func TestOrderCompaction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RepairEvery = 0
	cfg.AttachThreshold = 0.95 // every snippet its own story
	id := New("nyt", cfg, nil)
	// Create many singleton stories, then drain them with moves so
	// dropStory fires repeatedly and compaction kicks in.
	n := 80
	for i := 1; i <= n; i++ {
		s := snip(event.SnippetID(i), "nyt", i%28+1, []event.Entity{event.Entity(fmt.Sprintf("e%d", i))}, fmt.Sprintf("w%d", i))
		id.Process(s)
	}
	stories := id.Stories()
	if len(stories) < n/2 {
		t.Skipf("setup produced %d stories", len(stories))
	}
	target := stories[0].ID
	for _, st := range stories[1:] {
		for _, sn := range append([]*event.Snippet(nil), st.Snippets...) {
			id.Move(sn.ID, target)
		}
	}
	if got := len(id.Stories()); got != 1 {
		t.Fatalf("stories after drain = %d", got)
	}
	if got := len(id.order); got > 2*len(id.stories)+16 {
		t.Fatalf("order not compacted: %d entries for %d stories", got, len(id.stories))
	}
}
