package align

import (
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/event"
	"repro/internal/identify"
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

func mkStory(id event.StoryID, src event.SourceID, snips ...*event.Snippet) *event.Story {
	st := event.NewStory(id, src)
	for _, s := range snips {
		st.Add(s)
	}
	return st
}

// twoSourceFixture builds the paper's running example: an MH17 story
// reported by both sources plus an unrelated Google story in one source.
func twoSourceFixture() map[event.SourceID][]*event.Story {
	crash := []event.Entity{"UKR", "MAL"}
	goog := []event.Entity{"GOOG", "YELP"}
	nytCrash := mkStory(1, "nyt",
		snip(1, "nyt", 17, crash, "crash", "plane", "shot"),
		snip(2, "nyt", 18, crash, "crash", "investig"),
		snip(3, "nyt", 20, crash, "sanction", "report"),
	)
	wsjCrash := mkStory(2, "wsj",
		snip(11, "wsj", 17, crash, "crash", "plane", "explod"),
		snip(12, "wsj", 19, crash, "investig", "report"),
	)
	wsjGoog := mkStory(3, "wsj",
		snip(21, "wsj", 18, goog, "search", "antitrust", "content"),
	)
	return map[event.SourceID][]*event.Story{
		"nyt": {nytCrash},
		"wsj": {wsjCrash, wsjGoog},
	}
}

func TestAlignMatchesSameStoryAcrossSources(t *testing.T) {
	res := Align(twoSourceFixture(), DefaultConfig())
	if len(res.Integrated) != 2 {
		t.Fatalf("got %d integrated stories, want 2 (crash aligned + google singleton)", len(res.Integrated))
	}
	multi := res.MultiSource()
	if len(multi) != 1 {
		t.Fatalf("MultiSource = %d, want 1", len(multi))
	}
	crash := multi[0]
	if len(crash.Members) != 2 || crash.Len() != 5 {
		t.Fatalf("crash integrated story: %d members, %d snippets", len(crash.Members), crash.Len())
	}
	// Singleton story survives (paper §2.3).
	var foundGoog bool
	for _, is := range res.Integrated {
		for _, m := range is.Members {
			if m.ID == 3 {
				foundGoog = true
				if len(is.Members) != 1 {
					t.Error("google story wrongly aligned")
				}
			}
		}
	}
	if !foundGoog {
		t.Fatal("unaligned story dropped from result")
	}
	// Match edge recorded.
	if len(res.Matches) != 1 || res.Matches[0].Score < DefaultConfig().MatchThreshold {
		t.Fatalf("Matches = %+v", res.Matches)
	}
	// IntegratedOf lookups.
	if res.IntegratedOf(1) != crash || res.IntegratedOf(2) != crash {
		t.Fatal("IntegratedOf wrong")
	}
	if res.IntegratedOf(3) == crash {
		t.Fatal("google story mapped to crash component")
	}
	if res.IntegratedOf(99) != nil {
		t.Fatal("unknown story should map to nil")
	}
}

func TestAlignTemporalGapBlocksMatch(t *testing.T) {
	crash := []event.Entity{"UKR", "MAL"}
	a := mkStory(1, "nyt",
		snip(1, "nyt", 1, crash, "crash", "plane"),
		snip(2, "nyt", 2, crash, "crash", "investig"),
	)
	// Same content, but months later (beyond slack).
	b := event.NewStory(2, "wsj")
	b.Add(&event.Snippet{ID: 11, Source: "wsj", Timestamp: time.Date(2014, 11, 1, 0, 0, 0, 0, time.UTC),
		Entities: crash, Terms: []event.Term{{Token: "crash", Weight: 1}, {Token: "plane", Weight: 1}}})
	res := Align(map[event.SourceID][]*event.Story{"nyt": {a}, "wsj": {b}}, DefaultConfig())
	if len(res.MultiSource()) != 0 {
		t.Fatal("temporally disjoint stories aligned (paper: ti << tj must block)")
	}
}

func TestAlignSameSourceNeverMatches(t *testing.T) {
	crash := []event.Entity{"UKR", "MAL"}
	a := mkStory(1, "nyt", snip(1, "nyt", 17, crash, "crash", "plane"))
	b := mkStory(2, "nyt", snip(2, "nyt", 17, crash, "crash", "plane"))
	res := Align(map[event.SourceID][]*event.Story{"nyt": {a, b}}, DefaultConfig())
	if len(res.MultiSource()) != 0 {
		t.Fatal("same-source stories aligned; alignment is cross-source only")
	}
	if len(res.Integrated) != 2 {
		t.Fatalf("Integrated = %d", len(res.Integrated))
	}
}

func TestRolesAligningVsEnriching(t *testing.T) {
	crash := []event.Entity{"UKR", "MAL"}
	nyt := mkStory(1, "nyt",
		snip(1, "nyt", 17, crash, "crash", "plane", "shot"),
		// A special report with no counterpart anywhere near it.
		snip(2, "nyt", 28, crash, "feature", "profil", "victim"),
	)
	wsj := mkStory(2, "wsj",
		snip(11, "wsj", 17, crash, "crash", "plane", "explod"),
		snip(12, "wsj", 18, crash, "crash", "investig", "shot"),
	)
	res := Align(map[event.SourceID][]*event.Story{"nyt": {nyt}, "wsj": {wsj}}, DefaultConfig())
	multi := res.MultiSource()
	if len(multi) != 1 {
		t.Skipf("fixture did not align (%d multi)", len(multi))
	}
	is := multi[0]
	if is.Roles[1] != event.RoleAligning {
		t.Errorf("snippet 1 role = %v, want aligning", is.Roles[1])
	}
	if is.Roles[11] != event.RoleAligning {
		t.Errorf("snippet 11 role = %v, want aligning", is.Roles[11])
	}
	if is.Roles[2] != event.RoleEnriching {
		t.Errorf("special report role = %v, want enriching", is.Roles[2])
	}
}

func TestSingletonComponentRolesAllEnriching(t *testing.T) {
	st := mkStory(1, "nyt", snip(1, "nyt", 1, []event.Entity{"A"}, "x", "y"))
	res := Align(map[event.SourceID][]*event.Story{"nyt": {st}}, DefaultConfig())
	if res.Integrated[0].Roles[1] != event.RoleEnriching {
		t.Fatal("singleton member snippets must be enriching")
	}
}

func TestAlignerIncrementalUpsertRemove(t *testing.T) {
	fix := twoSourceFixture()
	a := NewAligner(DefaultConfig())
	for _, sts := range fix {
		for _, st := range sts {
			a.Upsert(st)
		}
	}
	if a.Len() != 3 {
		t.Fatalf("Len = %d", a.Len())
	}
	res1 := a.Result()
	if len(res1.MultiSource()) != 1 {
		t.Fatalf("incremental result: %d multi", len(res1.MultiSource()))
	}
	// Removing the wsj crash story dissolves the component.
	a.Remove(2)
	res2 := a.Result()
	if len(res2.MultiSource()) != 0 {
		t.Fatal("match survived story removal")
	}
	// Re-adding restores it (Upsert is idempotent re-add).
	a.Upsert(fix["wsj"][0])
	res3 := a.Result()
	if len(res3.MultiSource()) != 1 {
		t.Fatal("re-upsert did not restore the match")
	}
	// Upserting the same story twice must not duplicate edges.
	a.Upsert(fix["wsj"][0])
	if got := len(a.Matches()); got != 1 {
		t.Fatalf("duplicate edges after re-upsert: %d", got)
	}
	// Empty or nil stories are ignored.
	a.Upsert(nil)
	a.Upsert(event.NewStory(99, "nyt"))
	if a.Len() != 3 {
		t.Fatalf("empty story changed Len to %d", a.Len())
	}
	a.Remove(12345) // unknown: no-op
}

func TestAlignerEmptyUpsertRemovesKnownStory(t *testing.T) {
	// A story that lost every snippet must not leave its previous version,
	// its edges or its entity counts behind.
	fix := twoSourceFixture()
	a := NewAligner(DefaultConfig())
	for _, sts := range fix {
		for _, st := range sts {
			a.Upsert(st)
		}
	}
	if got := len(a.Matches()); got != 1 {
		t.Fatalf("fixture has %d matches, want 1", got)
	}
	before := a.live.Total()
	a.Upsert(event.NewStory(2, "wsj")) // the wsj crash story, now empty
	if a.Len() != 2 {
		t.Fatalf("Len = %d after the empty upsert, want 2", a.Len())
	}
	if got := len(a.Matches()); got != 0 {
		t.Fatalf("%d matches survive the emptied story", got)
	}
	for _, o := range a.adj[1] {
		if o == 2 {
			t.Fatalf("story 1 still lists the emptied story among its candidates %v", a.adj[1])
		}
	}
	if a.live.Total() >= before {
		t.Fatalf("entity mentions %d -> %d: the emptied story's counts are still resident", before, a.live.Total())
	}
	if len(a.Result().MultiSource()) != 0 {
		t.Fatal("emptied story still integrated")
	}
}

func TestAlignIncrementalEqualsBatch(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.Sources = 4
	cfg.Stories = 10
	cfg.EventsPerStory = 8
	c := datagen.Generate(cfg)
	ids := identify.RunAll(c.Snippets, identify.DefaultConfig(), nil)
	bySource := identify.StoriesBySource(ids)

	batch := Align(bySource, DefaultConfig())

	// Incremental: insert sources one at a time (the "new source appears"
	// flow of paper §2.1).
	a := NewAligner(DefaultConfig())
	for _, src := range c.Sources {
		for _, st := range bySource[src] {
			a.Upsert(st)
		}
	}
	incr := a.Result()

	asg := func(r *Result) eval.Assignment { return eval.FromIntegrated(r.Integrated) }
	f := eval.Pairwise(asg(batch), asg(incr))
	if f.F1 != 1 {
		t.Fatalf("incremental and batch alignment disagree: F1 = %.3f", f.F1)
	}
}

func TestAlignmentImprovesOverIdentificationAlone(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.Sources = 4
	cfg.Stories = 10
	cfg.EventsPerStory = 10
	c := datagen.Generate(cfg)
	ids := identify.RunAll(c.Snippets, identify.DefaultConfig(), nil)
	res := Align(identify.StoriesBySource(ids), DefaultConfig())

	truth := eval.Assignment{}
	for id, l := range c.Truth {
		truth[id] = l
	}
	// Identification alone cannot link cross-source snippets: its recall
	// against global truth is bounded. Alignment recovers those links.
	pred := eval.Assignment{}
	for k, v := range identify.MergedAssignment(ids) {
		pred[k] = uint64(v)
	}
	idOnly := eval.Pairwise(pred, truth)
	aligned := eval.Pairwise(eval.FromIntegrated(res.Integrated), truth)
	if !(aligned.Recall > idOnly.Recall) {
		t.Fatalf("alignment recall %.3f must exceed identification-only %.3f", aligned.Recall, idOnly.Recall)
	}
	if aligned.F1 < idOnly.F1 {
		t.Fatalf("alignment F1 %.3f dropped below identification-only %.3f", aligned.F1, idOnly.F1)
	}
	if aligned.F1 < 0.6 {
		t.Fatalf("aligned F1 = %.3f too low", aligned.F1)
	}
}

func TestSketchFilterReducesComparisons(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.Sources = 5
	cfg.Stories = 15
	cfg.EventsPerStory = 8
	c := datagen.Generate(cfg)
	ids := identify.RunAll(c.Snippets, identify.DefaultConfig(), nil)
	bySource := identify.StoriesBySource(ids)

	plain := NewAligner(DefaultConfig())
	scfg := DefaultConfig()
	scfg.UseSketchFilter = true
	sk := NewAligner(scfg)
	for _, src := range c.Sources {
		for _, st := range bySource[src] {
			plain.Upsert(st)
			sk.Upsert(st)
		}
	}
	if sk.Stats().SketchSkipped == 0 {
		t.Fatal("sketch filter skipped nothing")
	}
	if sk.Stats().Comparisons >= plain.Stats().Comparisons {
		t.Fatalf("sketch comparisons %d >= plain %d", sk.Stats().Comparisons, plain.Stats().Comparisons)
	}
	// Quality must stay close.
	f := eval.Pairwise(eval.FromIntegrated(plain.Result().Integrated), eval.FromIntegrated(sk.Result().Integrated))
	if f.F1 < 0.9 {
		t.Fatalf("sketch filter changed results too much: agreement F1 = %.3f", f.F1)
	}
}

func TestRefineCorrectsMisassignment(t *testing.T) {
	// Build identification state with a deliberate mistake, mirroring
	// Figure 1d: nyt snippet 4 really belongs to the crash story but sits
	// in the google story.
	crash := []event.Entity{"UKR", "MAL"}
	goog := []event.Entity{"GOOG", "YELP"}

	alloc := &identify.IDAlloc{}
	idCfg := identify.DefaultConfig()
	idCfg.RepairEvery = 0
	nyt := identify.New("nyt", idCfg, alloc)
	wsj := identify.New("wsj", idCfg, alloc)

	nyt.Process(snip(1, "nyt", 17, crash, "crash", "plane", "shot"))
	nyt.Process(snip(2, "nyt", 18, crash, "crash", "investig", "shot"))
	nyt.Process(snip(3, "nyt", 18, goog, "search", "antitrust", "content"))
	wsj.Process(snip(11, "wsj", 17, crash, "crash", "plane", "shot"))
	wsj.Process(snip(12, "wsj", 18, crash, "crash", "investig", "shot"))
	wsj.Process(snip(13, "wsj", 18, goog, "search", "antitrust", "content"))

	// Inject the mistake: move nyt snippet 2 into the google story.
	googStory := nyt.StoryOf(3)
	if !nyt.Move(2, googStory) {
		t.Fatal("setup move failed")
	}

	bySource := map[event.SourceID][]*event.Story{"nyt": nyt.Stories(), "wsj": wsj.Stories()}
	res := Align(bySource, DefaultConfig())

	movers := map[event.SourceID]Mover{"nyt": nyt, "wsj": wsj}
	corrections := Refine(res, movers, DefaultRefineConfig())
	if len(corrections) == 0 {
		t.Fatal("refinement found no corrections")
	}
	found := false
	for _, c := range corrections {
		if c.Snippet == 2 && c.Source == "nyt" {
			found = true
			if c.Gain <= 0 {
				t.Errorf("correction gain = %g", c.Gain)
			}
		}
	}
	if !found {
		t.Fatalf("snippet 2 not corrected; corrections = %+v", corrections)
	}
	if nyt.StoryOf(2) != nyt.StoryOf(1) {
		t.Fatal("snippet 2 not re-homed to the crash story")
	}
}

func TestRefineNoFalseMoves(t *testing.T) {
	// Clean identification: refinement must leave everything in place.
	cfg := datagen.DefaultConfig()
	cfg.Sources = 3
	cfg.Stories = 8
	cfg.EventsPerStory = 8
	cfg.NoiseTermPct = 0
	cfg.NoiseEntPct = 0
	c := datagen.Generate(cfg)
	ids := identify.RunAll(c.Snippets, identify.DefaultConfig(), nil)

	truth := eval.Assignment{}
	for id, l := range c.Truth {
		truth[id] = l
	}
	pred := eval.Assignment{}
	for k, v := range identify.MergedAssignment(ids) {
		pred[k] = uint64(v)
	}
	before := eval.BCubed(pred, truth).F1

	res := Align(identify.StoriesBySource(ids), DefaultConfig())
	movers := map[event.SourceID]Mover{}
	for src, id := range ids {
		movers[src] = id
	}
	Refine(res, movers, DefaultRefineConfig())

	after := eval.Assignment{}
	for k, v := range identify.MergedAssignment(ids) {
		after[k] = uint64(v)
	}
	if got := eval.BCubed(after, truth).F1; got < before-0.02 {
		t.Fatalf("refinement degraded clean identification: %.3f -> %.3f", before, got)
	}
}
