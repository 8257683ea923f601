package storypivot

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/retire"
	"repro/internal/storage"
	"repro/internal/stream"
)

// retireDiffWindow is the retirement window for the differential runs.
// Exactness requires W to exceed both the identification window ω (14d
// default — a cold story can never be an attach candidate again) and
// the alignment slack (7d default — it can never gain an alignment
// edge), so retiring it cannot change any surviving decision. The
// corpus is ingested in timestamp order, so event-time lateness is zero
// and no extra margin is needed.
const retireDiffWindow = 16 * 24 * time.Hour

// retireDiffOpts is the shared configuration of both differential
// pipelines: refinement on, incremental repair off (repair-merge can
// reach arbitrarily far back in a source, which no finite window can
// bound), and alignment entity-IDF off — IDF statistics aggregate over
// every resident story, so eviction would shift match scores; pinning
// uniform weights is the same documented trade the cluster's sharding
// differential makes (DESIGN.md §3.12).
func retireDiffOpts() []Option {
	return []Option{
		WithRefinement(true),
		WithRepairEvery(0),
		WithAlignEntityIDF(false),
	}
}

// TestRetireDifferential is the correctness oracle for story
// retirement: two pipelines replay the same corpora — refinement on, a
// source removed mid-stream — one with a bounded story window, one
// unbounded. At every checkpoint the bounded pipeline's query responses
// must be byte-identical to the unbounded pipeline's responses filtered
// to the active window: identical story IDs, identical member snippets,
// identical order. Every response entry the bounded pipeline lacks must
// be provably cold (its evidence ended more than W before the
// watermark) — retirement may only ever remove what the policy
// promises, and may not perturb anything it keeps.
func TestRetireDifferential(t *testing.T) {
	for _, seed := range []int64{7, 21, 63} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			corpus := datagen.Generate(experiments.CorpusScale(600, 5, seed))
			pOff, err := New(retireDiffOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			defer pOff.Close()
			pOn, err := New(append(retireDiffOpts(),
				WithRetireWindow(retireDiffWindow),
				WithStorage(t.TempDir()))...)
			if err != nil {
				t.Fatal(err)
			}
			defer pOn.Close()

			entities := panelEntities(corpus, 8)
			queries := panelQueries(corpus, 6)

			removeAt := len(corpus.Snippets) * 3 / 5
			for i, sn := range corpus.Snippets {
				if err := pOff.Ingest(sn); err != nil {
					t.Fatal(err)
				}
				if err := pOn.Ingest(sn.Clone()); err != nil {
					t.Fatal(err)
				}
				if i == removeAt {
					src := corpus.Snippets[0].Source
					if !pOff.RemoveSource(src) || !pOn.RemoveSource(src) {
						t.Fatalf("RemoveSource(%s) had nothing to remove", src)
					}
					compareActiveWindow(t, pOff, pOn, entities, queries,
						fmt.Sprintf("after RemoveSource(%s)", src))
				}
				if (i+1)%150 == 0 {
					compareActiveWindow(t, pOff, pOn, entities, queries,
						fmt.Sprintf("checkpoint %d", i+1))
				}
			}
			compareActiveWindow(t, pOff, pOn, entities, queries, "final")

			view := pOn.Retire().Snapshot()
			if view.Retired == 0 {
				t.Error("no story was ever retired: the differential exercised nothing")
			}
			t.Logf("seed %d: retired %d, reactivated %d, resident %d vs %d unbounded",
				seed, view.Retired, view.Reactivated,
				view.Resident, len(pOff.Result().Integrated()))
		})
	}
}

// storyKey renders an integrated story's full query-visible identity —
// ID plus every member snippet in member order — so equality of keys is
// byte-level equality of the response entry.
func storyKey(is *IntegratedStory) string {
	s := fmt.Sprintf("%d", is.ID)
	for _, m := range is.Members {
		s += fmt.Sprintf("|%s/%d:", m.Source, m.ID)
		for _, sn := range m.Snippets {
			s += fmt.Sprintf("%d,", sn.ID)
		}
	}
	return s
}

// storyEnd is the integrated story's last evidence time.
func storyEnd(is *IntegratedStory) time.Time {
	var end time.Time
	for _, m := range is.Members {
		if m.End.After(end) {
			end = m.End
		}
	}
	return end
}

// compareStorySeqs walks the unbounded response and the bounded
// response in lockstep: equal entries consume both sides; an entry only
// the unbounded side has must be cold (ended before the cutoff). Both
// sequences must be fully consumed — the bounded side may not contain
// anything the unbounded side lacks, nor reorder what both contain.
func compareStorySeqs(t *testing.T, at, what string, off, on []*IntegratedStory, cutoff time.Time) {
	t.Helper()
	j := 0
	for _, is := range off {
		if j < len(on) && storyKey(on[j]) == storyKey(is) {
			j++
			continue
		}
		if end := storyEnd(is); !end.Before(cutoff) {
			t.Fatalf("%s: %s: story %d (end %v) missing from bounded pipeline but inside the window (cutoff %v)",
				at, what, is.ID, end, cutoff)
		}
	}
	if j != len(on) {
		t.Fatalf("%s: %s: bounded pipeline served %d entries the unbounded pipeline lacks (first: %s)",
			at, what, len(on)-j, storyKey(on[j]))
	}
}

// compareActiveWindow settles both pipelines and asserts every panel
// query's response is byte-identical on the active window.
func compareActiveWindow(t *testing.T, pOff, pOn *Pipeline, entities []Entity, queries []string, at string) {
	t.Helper()
	pOff.Result()
	pOn.Result()
	_, watermark := pOn.Engine().TimeRange()
	cutoff := watermark.Add(-retireDiffWindow)
	for _, e := range entities {
		off, _ := pOff.StoriesByEntityN(e, 0, -1)
		on, _ := pOn.StoriesByEntityN(e, 0, -1)
		compareStorySeqs(t, at, fmt.Sprintf("StoriesByEntity(%s)", e), off, on, cutoff)

		offTL, _ := pOff.TimelineN(e, 0, -1)
		onTL, _ := pOn.TimelineN(e, 0, -1)
		j := 0
		for _, sn := range offTL {
			if j < len(onTL) && onTL[j].ID == sn.ID {
				j++
				continue
			}
			if !sn.Timestamp.Before(cutoff) {
				t.Fatalf("%s: Timeline(%s): snippet %d (ts %v) missing from bounded pipeline but inside the window",
					at, e, sn.ID, sn.Timestamp)
			}
		}
		if j != len(onTL) {
			t.Fatalf("%s: Timeline(%s): bounded pipeline served %d snippets the unbounded pipeline lacks",
				at, e, len(onTL)-j)
		}
	}
	for _, q := range queries {
		off, _ := pOff.SearchN(q, 0, -1)
		on, _ := pOn.SearchN(q, 0, -1)
		compareStorySeqs(t, at, fmt.Sprintf("Search(%q)", q), off, on, cutoff)
	}
}

// retireSnip builds one hand-crafted snippet for the lifecycle tests.
func retireSnip(id uint64, src string, ts time.Time, ents ...string) *Snippet {
	sn := &Snippet{
		ID:        SnippetID(id),
		Source:    SourceID(src),
		Timestamp: ts,
		Document:  fmt.Sprintf("http://%s/doc%d.html", src, id),
	}
	for _, e := range ents {
		sn.Entities = append(sn.Entities, Entity(e))
		sn.Terms = append(sn.Terms, Term{Token: "about_" + e, Weight: 1})
	}
	return sn
}

// retireStory ingests keep-alive snippets (each a fresh single-snippet
// story with a unique entity) advancing the watermark to end, settling
// alignment every step so retirement walks run.
func advanceWatermark(t *testing.T, p *Pipeline, src string, idBase uint64, from, end time.Time, step time.Duration) uint64 {
	t.Helper()
	for ts := from; !ts.After(end); ts = ts.Add(step) {
		idBase++
		sn := retireSnip(idBase, src, ts, fmt.Sprintf("filler_%d", idBase))
		if err := p.Ingest(sn); err != nil {
			t.Fatal(err)
		}
		p.Result()
	}
	return idBase
}

// TestRetireReactivation drives one story through the full lifecycle:
// resident → cold → retired (evicted from every query path) → new
// evidence arrives → reactivated under its ORIGINAL StoryID with the
// new snippet merged in. Identity stability across the round trip is
// what makes retirement invisible to StoryID-keyed consumers.
func TestRetireReactivation(t *testing.T) {
	const window = 21 * 24 * time.Hour
	t0 := time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)
	p, err := New(append(retireDiffOpts(),
		WithRetireWindow(window),
		WithStorage(t.TempDir()),
		WithRetireGrace(time.Hour))...)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// The target story: two snippets about "kepler" on source alpha.
	for id, off := range []time.Duration{0, time.Hour} {
		if err := p.Ingest(retireSnip(uint64(id+1), "alpha", t0.Add(off), "kepler", "telescope")); err != nil {
			t.Fatal(err)
		}
	}
	target := p.StoryOf("alpha", 1)
	if target == 0 || target != p.StoryOf("alpha", 2) {
		t.Fatalf("setup: snippets 1,2 not in one story (got %d, %d)",
			p.StoryOf("alpha", 1), p.StoryOf("alpha", 2))
	}

	// Advance the watermark far enough that the story is cold AND clear
	// of the same-source repair guard (window + ω past its extent).
	advanceWatermark(t, p, "alpha", 100, t0.Add(48*time.Hour), t0.Add(60*24*time.Hour), 48*time.Hour)

	view := p.Retire().Snapshot()
	if view.Retired == 0 {
		t.Fatalf("story never retired: %+v", view)
	}
	if got, _ := p.StoriesByEntityN("kepler", 0, -1); len(got) != 0 {
		t.Fatalf("retired story still served by StoriesByEntity: %v", storyIDs(got))
	}
	if tl, _ := p.TimelineN("kepler", 0, -1); len(tl) != 0 {
		t.Fatalf("retired story still served by Timeline: %v", snippetIDs(tl))
	}

	// Late evidence lands inside the story's padded extent: reactivate.
	if err := p.Ingest(retireSnip(1000, "alpha", t0.Add(72*time.Hour), "kepler")); err != nil {
		t.Fatal(err)
	}
	if got := p.StoryOf("alpha", 1000); got != target {
		t.Fatalf("reactivated evidence assigned to story %d, want original %d", got, target)
	}
	view = p.Retire().Snapshot()
	if view.Reactivated == 0 {
		t.Fatalf("reactivation not counted: %+v", view)
	}

	// The re-merged story serves all three snippets again.
	p.Result()
	got, _ := p.StoriesByEntityN("kepler", 0, -1)
	if len(got) != 1 {
		t.Fatalf("want 1 kepler story after reactivation, got %v", storyIDs(got))
	}
	members := map[uint64]bool{}
	for _, m := range got[0].Members {
		if m.ID != target {
			t.Fatalf("reactivated member story %d, want %d", m.ID, target)
		}
		for _, sn := range m.Snippets {
			members[uint64(sn.ID)] = true
		}
	}
	for _, want := range []uint64{1, 2, 1000} {
		if !members[want] {
			t.Fatalf("snippet %d missing after re-merge (have %v)", want, members)
		}
	}
}

// TestRejectedIngestKeepsReactivatedVisible redelivers a snippet of a
// retired story to the engine. The redelivery fingerprints to the
// archived story, so Ingest adopts it back before it finds the snippet
// already assigned and refuses it as a duplicate. The adopted story must still reach the
// next settle: afterwards every story is either served or archived.
func TestRejectedIngestKeepsReactivatedVisible(t *testing.T) {
	const window = 21 * 24 * time.Hour
	t0 := time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)
	p, err := New(append(retireDiffOpts(),
		WithRetireWindow(window),
		WithStorage(t.TempDir()),
		WithRetireGrace(time.Hour))...)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	kepler := func(id uint64) *Snippet {
		return retireSnip(id, "alpha", t0.Add(time.Duration(id-1)*time.Hour), "kepler", "telescope")
	}
	for id := uint64(1); id <= 2; id++ {
		if err := p.Ingest(kepler(id)); err != nil {
			t.Fatal(err)
		}
	}
	target := p.StoryOf("alpha", 1)
	advanceWatermark(t, p, "alpha", 100, t0.Add(48*time.Hour), t0.Add(60*24*time.Hour), 48*time.Hour)
	if !p.Retire().Has(target) {
		t.Fatalf("setup: story %d never retired: %+v", target, p.Retire().Snapshot())
	}

	// The store refuses a redelivery before the engine sees it, so it
	// reactivates nothing; the engine's own refusal is driven directly.
	if err := p.Ingest(kepler(1)); !errors.Is(err, storage.ErrDuplicate) {
		t.Fatalf("redelivery through the store: err = %v, want storage.ErrDuplicate", err)
	}
	if p.Retire().Snapshot().Reactivated != 0 {
		t.Fatal("a redelivery the store refused reactivated a story")
	}
	if _, err := p.Engine().Ingest(kepler(1)); !errors.Is(err, stream.ErrDuplicate) {
		t.Fatalf("redelivery of a retired snippet: err = %v, want ErrDuplicate", err)
	}
	if p.Retire().Snapshot().Reactivated == 0 {
		t.Fatal("setup: the redelivery reactivated nothing")
	}
	res := p.Result()
	if got, _ := p.StoriesByEntityN("kepler", 0, -1); len(got) != 1 {
		t.Fatalf("kepler stories served after the refused redelivery: %v, want 1", storyIDs(got))
	}
	served := map[StoryID]bool{}
	for _, is := range res.inner.Integrated {
		for _, m := range is.Members {
			served[m.ID] = true
		}
	}
	for _, src := range p.Sources() {
		for _, st := range p.Engine().Stories(src) {
			if !served[st.ID] && !p.Retire().Has(st.ID) {
				t.Errorf("story %d of %s is neither served nor archived", st.ID, src)
			}
		}
	}
}

// TestRetireRequiresStorage: an archive record names its members by
// snippet ID, so retirement without a store is refused up front.
func TestRetireRequiresStorage(t *testing.T) {
	_, err := New(WithRetireWindow(21 * 24 * time.Hour))
	if err == nil || !strings.Contains(err.Error(), "WithStorage") {
		t.Fatalf("New(WithRetireWindow) without a store: err = %v, want one naming WithStorage", err)
	}
}

// TestRetireBoundedResident is the compressed-clock soak: a long
// stream of short-lived stories flows through two pipelines. With the
// window on, the resident story count must stay flat (bounded by the
// stories alive in any window span); with it off, it must grow with the
// corpus — the memory leak retirement exists to stop.
func TestRetireBoundedResident(t *testing.T) {
	const window = 14 * 24 * time.Hour
	cfg := experiments.CorpusScale(1200, 4, 11)
	cfg.Span = 366 * 24 * time.Hour
	cfg.MeanStoryLife = 5 * 24 * time.Hour
	corpus := datagen.Generate(cfg)

	pOn, err := New(WithRetireWindow(window), WithStorage(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer pOn.Close()
	pOff, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer pOff.Close()

	peakOn := 0
	for i, sn := range corpus.Snippets {
		if err := pOn.Ingest(sn.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := pOff.Ingest(sn); err != nil {
			t.Fatal(err)
		}
		if (i+1)%100 == 0 {
			pOn.Result()
			pOff.Result()
			if r := pOn.Retire().Snapshot().Resident; r > peakOn {
				peakOn = r
			}
		}
	}
	pOn.Result()
	on := pOn.Retire().Snapshot()
	// Count what the window bounds: resident per-source stories
	// (Snapshot().Resident is the engine's story count, so sum the
	// unbounded pipeline's integrated-story member counts to match).
	offResident := 0
	for _, is := range pOff.Result().Integrated() {
		offResident += is.Len()
	}
	t.Logf("resident bounded=%d (peak %d, retired %d) vs unbounded=%d",
		on.Resident, peakOn, on.Retired, offResident)
	if on.Retired == 0 {
		t.Fatal("soak never retired a story")
	}
	if 2*peakOn >= offResident {
		t.Fatalf("bounded peak %d not clearly below unbounded %d: window did not bound memory",
			peakOn, offResident)
	}
}

// TestRetireIngestRace exercises the reactivation and retirement paths
// under concurrency (run it with -race): per-source ingest goroutines
// race far apart in event time, so snippets are arbitrarily late
// relative to the watermark — retirements and reactivations interleave
// with ingest, alignment, queries, and live policy rebasing.
func TestRetireIngestRace(t *testing.T) {
	corpus := datagen.Generate(experiments.CorpusScale(800, 4, 13))
	p, err := New(WithRetireWindow(10*24*time.Hour),
		WithStorage(t.TempDir()),
		WithAutoAlign(25))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	bySource := map[SourceID][]*Snippet{}
	for _, sn := range corpus.Snippets {
		bySource[sn.Source] = append(bySource[sn.Source], sn)
	}
	var ingest sync.WaitGroup
	for _, sns := range bySource {
		ingest.Add(1)
		go func(sns []*Snippet) {
			defer ingest.Done()
			for _, sn := range sns {
				if err := p.Ingest(sn); err != nil {
					t.Error(err)
					return
				}
			}
		}(sns)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent alignment, queries, window admin
		defer readers.Done()
		grace := 12 * time.Hour
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			p.Result()
			p.SearchN("about", 0, 10)
			p.Retire().Snapshot()
			if i%10 == 0 {
				if err := p.Retire().Apply(retire.Update{Grace: &grace}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	ingest.Wait()
	close(done)
	readers.Wait()
	p.Result()
	if v := p.Retire().Snapshot(); v.Retired == 0 {
		t.Logf("race run retired nothing (timing-dependent): %+v", v)
	}
}
