package stream

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/event"
	"repro/internal/identify"
	"repro/internal/retire"
)

// identifierOf returns src's live identifier, bypassing the shard lock:
// only for tests that ingest from a single goroutine.
func identifierOf(e *Engine, src event.SourceID) *identify.Identifier {
	return e.lookupShard(src).id
}

func day(d int) time.Time { return time.Date(2014, 7, d, 0, 0, 0, 0, time.UTC) }

func snip(id event.SnippetID, src event.SourceID, d int, ents []event.Entity, toks ...string) *event.Snippet {
	s := &event.Snippet{ID: id, Source: src, Timestamp: day(d), Entities: ents}
	for _, tok := range toks {
		s.Terms = append(s.Terms, event.Term{Token: tok, Weight: 1})
	}
	s.Normalize()
	return s
}

func TestEngineBasicFlow(t *testing.T) {
	e := NewEngine(DefaultOptions())
	crash := []event.Entity{"UKR", "MAL"}

	sid1, err := e.Ingest(snip(1, "nyt", 17, crash, "crash", "plane"))
	if err != nil {
		t.Fatal(err)
	}
	sid2, err := e.Ingest(snip(2, "nyt", 18, crash, "crash", "investig"))
	if err != nil {
		t.Fatal(err)
	}
	if sid1 != sid2 {
		t.Fatal("related snippets in different stories")
	}
	if _, err := e.Ingest(snip(11, "wsj", 17, crash, "crash", "plane", "explod")); err != nil {
		t.Fatal(err)
	}
	if got := e.Sources(); len(got) != 2 || got[0] != "nyt" || got[1] != "wsj" {
		t.Fatalf("Sources = %v", got)
	}
	res := e.Align()
	if len(res.MultiSource()) != 1 {
		t.Fatalf("MultiSource = %d", len(res.MultiSource()))
	}
	if e.Ingested() != 3 {
		t.Fatalf("Ingested = %d", e.Ingested())
	}
	if got := e.Stories("nyt"); len(got) != 1 {
		t.Fatalf("nyt stories = %d", len(got))
	}
	if st, stories, ok := e.SourceStats("nyt"); !ok || st.Processed != 2 || stories != 1 {
		t.Fatalf("SourceStats(nyt) = %+v, %d, %v", st, stories, ok)
	}
	if _, _, ok := e.SourceStats("nope"); ok {
		t.Fatal("SourceStats reports an unknown source")
	}
	if e.StoryOf("nyt", 2) != sid1 || e.StoryOf("nyt", 11) != 0 || e.StoryOf("nope", 1) != 0 {
		t.Fatal("StoryOf accessor wrong")
	}
}

func TestEngineRejectsInvalidAndDuplicates(t *testing.T) {
	e := NewEngine(DefaultOptions())
	if _, err := e.Ingest(&event.Snippet{ID: 1}); err == nil {
		t.Fatal("invalid snippet accepted")
	}
	s := snip(1, "nyt", 17, []event.Entity{"UKR"}, "crash")
	if _, err := e.Ingest(s); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(s); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate delivery error = %v", err)
	}
	if e.Ingested() != 1 {
		t.Fatalf("Ingested = %d after a rejected redelivery, want 1", e.Ingested())
	}
}

// TestEngineRejectsExactlyRedeliveries feeds one source 100,000
// distinct snippets, more than any fixed-size membership filter holds
// without false positives, and then redelivers a sample of them. The
// engine must accept every first delivery and refuse every redelivery.
// Each group of 300 snippets is its own story: one entity, 30 days
// after the previous group, so identification stays cheap.
func TestEngineRejectsExactlyRedeliveries(t *testing.T) {
	const n, perStory = 100_000, 300
	opts := DefaultOptions()
	opts.Identify.RepairEvery = 0
	e := NewEngine(opts)
	mk := func(id int) *event.Snippet {
		g := (id - 1) / perStory
		s := snip(event.SnippetID(id), "nyt", 1, []event.Entity{event.Entity(fmt.Sprintf("E%d", g))}, "report")
		s.Timestamp = s.Timestamp.AddDate(0, 0, 30*g).Add(time.Duration((id-1)%perStory) * time.Minute)
		return s
	}
	rejected := 0
	for id := 1; id <= n; id++ {
		if _, err := e.Ingest(mk(id)); errors.Is(err, ErrDuplicate) {
			if rejected == 0 {
				t.Errorf("first delivery of snippet %d refused as a duplicate", id)
			}
			rejected++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if rejected != 0 {
		t.Fatalf("%d of %d distinct snippets refused as duplicates", rejected, n)
	}
	for id := 1; id <= n; id += 997 {
		if _, err := e.Ingest(mk(id)); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("redelivery of snippet %d: err = %v, want ErrDuplicate", id, err)
		}
	}
	if e.Ingested() != n {
		t.Fatalf("Ingested = %d, want %d", e.Ingested(), n)
	}
}

func TestEngineRemoveSource(t *testing.T) {
	e := NewEngine(DefaultOptions())
	crash := []event.Entity{"UKR", "MAL"}
	e.Ingest(snip(1, "nyt", 17, crash, "crash", "plane"))
	e.Ingest(snip(11, "wsj", 17, crash, "crash", "plane"))
	if len(e.Align().MultiSource()) != 1 {
		t.Fatal("setup alignment failed")
	}
	if !e.RemoveSource("wsj") {
		t.Fatal("RemoveSource = false")
	}
	if e.RemoveSource("wsj") {
		t.Fatal("second RemoveSource = true")
	}
	res := e.Result()
	if len(res.MultiSource()) != 0 {
		t.Fatal("removed source still aligned")
	}
	if len(res.Integrated) != 1 {
		t.Fatalf("Integrated = %d after removal", len(res.Integrated))
	}
}

func TestEngineAddSourceIdempotent(t *testing.T) {
	e := NewEngine(DefaultOptions())
	e.AddSource("nyt")
	e.AddSource("nyt")
	if got := e.Sources(); len(got) != 1 {
		t.Fatalf("Sources = %v", got)
	}
}

func TestEngineAutoAlign(t *testing.T) {
	opts := DefaultOptions()
	opts.AutoAlignEvery = 2
	e := NewEngine(opts)
	crash := []event.Entity{"UKR", "MAL"}
	e.Ingest(snip(1, "nyt", 17, crash, "crash", "plane"))
	e.Ingest(snip(11, "wsj", 17, crash, "crash", "plane"))
	// Auto-align fired; Result should not need recomputation (no dirty).
	res := e.Result()
	if len(res.MultiSource()) != 1 {
		t.Fatal("auto-align did not produce integrated story")
	}
}

func TestEngineOutOfOrderMatchesInOrder(t *testing.T) {
	gen := datagen.DefaultConfig()
	gen.Sources = 3
	gen.Stories = 8
	gen.EventsPerStory = 8
	corpus := datagen.Generate(gen)

	truth := eval.Assignment{}
	for id, l := range corpus.Truth {
		truth[id] = l
	}
	run := func(snips []*event.Snippet) float64 {
		e := NewEngine(DefaultOptions())
		e.IngestAll(snips)
		res := e.Align()
		return eval.Pairwise(eval.FromIntegrated(res.Integrated), truth).F1
	}
	inOrder := run(corpus.Snippets)
	outOfOrder := run(corpus.Shuffled(0.3, 25, 7))
	if inOrder < 0.55 {
		t.Fatalf("in-order F1 = %.3f too low", inOrder)
	}
	if outOfOrder < inOrder-0.2 {
		t.Fatalf("out-of-order F1 %.3f collapsed vs in-order %.3f", outOfOrder, inOrder)
	}
}

func TestEngineIncrementalSourceAddition(t *testing.T) {
	gen := datagen.DefaultConfig()
	gen.Sources = 4
	gen.Stories = 8
	gen.EventsPerStory = 6
	corpus := datagen.Generate(gen)
	parts := corpus.BySource()

	// Stream sources one at a time, aligning between additions — the
	// paper's "new source appears" flow.
	e := NewEngine(DefaultOptions())
	var lastCount int
	for _, src := range corpus.Sources {
		e.IngestAll(parts[src])
		res := e.Align()
		if len(res.Integrated) == 0 {
			t.Fatalf("no integrated stories after adding %s", src)
		}
		lastCount = len(res.Integrated)
	}

	// Compare against a single batch run over everything.
	e2 := NewEngine(DefaultOptions())
	e2.IngestAll(corpus.Snippets)
	batch := e2.Align()

	f := eval.Pairwise(
		eval.FromIntegrated(e.Result().Integrated),
		eval.FromIntegrated(batch.Integrated),
	)
	if f.F1 < 0.8 {
		t.Fatalf("incremental-by-source vs batch agreement F1 = %.3f (counts %d vs %d)",
			f.F1, lastCount, len(batch.Integrated))
	}
}

func TestEngineRefineOnAlign(t *testing.T) {
	opts := DefaultOptions()
	opts.RefineOnAlign = true
	e := NewEngine(opts)
	crash := []event.Entity{"UKR", "MAL"}
	goog := []event.Entity{"GOOG", "YELP"}
	e.Ingest(snip(1, "nyt", 17, crash, "crash", "plane", "shot"))
	e.Ingest(snip(2, "nyt", 18, crash, "crash", "investig", "shot"))
	e.Ingest(snip(3, "nyt", 18, goog, "search", "antitrust", "content"))
	e.Ingest(snip(11, "wsj", 17, crash, "crash", "plane", "shot"))
	e.Ingest(snip(12, "wsj", 18, crash, "crash", "investig", "shot"))
	e.Ingest(snip(13, "wsj", 18, goog, "search", "antitrust", "content"))

	// Inject a mistake directly through the identifier, then re-align
	// with refinement enabled.
	nyt := identifierOf(e, "nyt")
	if !nyt.Move(2, nyt.StoryOf(3)) {
		t.Fatal("setup move failed")
	}
	e.Align()
	if nyt.StoryOf(2) != nyt.StoryOf(1) {
		t.Fatal("refinement during Align did not correct the mistake")
	}
	res := e.Result()
	// The result must reflect the corrected stories: snippet 2 in the
	// crash integrated story.
	var crashIS *event.IntegratedStory
	for _, is := range res.Integrated {
		for _, sn := range is.Snippets() {
			if sn.ID == 1 {
				crashIS = is
			}
		}
	}
	if crashIS == nil {
		t.Fatal("crash story missing")
	}
	found := false
	for _, sn := range crashIS.Snippets() {
		if sn.ID == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("corrected snippet not in the integrated crash story")
	}
}

func TestEngineConcurrentIngest(t *testing.T) {
	gen := datagen.DefaultConfig()
	gen.Sources = 4
	gen.Stories = 6
	gen.EventsPerStory = 6
	corpus := datagen.Generate(gen)
	parts := corpus.BySource()

	e := NewEngine(DefaultOptions())
	var wg sync.WaitGroup
	for _, src := range corpus.Sources {
		wg.Add(1)
		go func(snips []*event.Snippet) {
			defer wg.Done()
			for _, s := range snips {
				e.Ingest(s)
			}
		}(parts[src])
	}
	// Concurrent aligns while ingesting.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			e.Align()
		}
	}()
	wg.Wait()
	if int(e.Ingested()) != len(corpus.Snippets) {
		t.Fatalf("Ingested = %d, want %d", e.Ingested(), len(corpus.Snippets))
	}
	res := e.Align()
	covered := 0
	for _, is := range res.Integrated {
		covered += is.Len()
	}
	if covered != len(corpus.Snippets) {
		t.Fatalf("integrated stories cover %d of %d snippets", covered, len(corpus.Snippets))
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	gen := datagen.DefaultConfig()
	gen.Sources = 3
	gen.Stories = 6
	gen.EventsPerStory = 6
	corpus := datagen.Generate(gen)

	e := NewEngine(DefaultOptions())
	e.IngestAll(corpus.Snippets)
	before := eval.FromIntegrated(e.Align().Integrated)

	var buf bytes.Buffer
	if err := e.Checkpoint().Write(&buf); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := RestoreEngineArchived(DefaultOptions(), corpus.Snippets, cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := eval.FromIntegrated(e2.Align().Integrated)
	if f := eval.Pairwise(after, before).F1; f != 1 {
		t.Fatalf("restored partition differs: agreement F1 = %.3f", f)
	}
	// Statistics rebuilt.
	if e2.Ingested() != e.Ingested() {
		t.Fatalf("ingested %d, want %d", e2.Ingested(), e.Ingested())
	}
	if got, want := e2.DistinctEntities(), e.DistinctEntities(); got != want || want == 0 {
		t.Fatalf("distinct entities %d after restore, want %d", got, want)
	}
	s1, e1 := e.TimeRange()
	s2, e2t := e2.TimeRange()
	if !s1.Equal(s2) || !e1.Equal(e2t) {
		t.Fatal("time range not rebuilt")
	}
	// Restored assignments dedup: re-delivery rejected.
	if _, err := e2.Ingest(corpus.Snippets[0]); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("restored dedup missed duplicate: %v", err)
	}
	// New ingestion gets fresh story IDs (allocator bumped).
	fresh := corpus.Snippets[0].Clone()
	fresh.ID = event.SnippetID(1 << 50)
	fresh.Timestamp = fresh.Timestamp.Add(365 * 24 * time.Hour)
	sid, err := e2.Ingest(fresh)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range e2.Stories(fresh.Source) {
		if st.ID == sid {
			continue
		}
		if st.ID > sid {
			t.Fatalf("allocator not bumped: new story %d below existing %d", sid, st.ID)
		}
	}
}

func TestRestoreEngineStaleCheckpoint(t *testing.T) {
	gen := datagen.DefaultConfig()
	gen.Sources = 2
	gen.Stories = 3
	gen.EventsPerStory = 4
	corpus := datagen.Generate(gen)

	e := NewEngine(DefaultOptions())
	e.IngestAll(corpus.Snippets[:len(corpus.Snippets)/2])
	cp := e.Checkpoint()

	// Restoring against MORE snippets than the checkpoint covers fails.
	if _, err := RestoreEngineArchived(DefaultOptions(), corpus.Snippets, cp, nil); !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("stale checkpoint accepted: %v", err)
	}
	// Nil checkpoint fails.
	if _, err := RestoreEngineArchived(DefaultOptions(), corpus.Snippets, nil, nil); !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("nil checkpoint accepted: %v", err)
	}
	// Wrong version rejected at read time.
	if _, err := ReadCheckpoint(strings.NewReader(`{"version":99,"sources":{}}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
	if _, err := ReadCheckpoint(strings.NewReader("{nope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestDistinctEntitiesExact ingests 20,000 distinct entities over two
// sources, re-delivers some snippets and refuses one that carries an
// entity nothing accepted mentions, and requires DistinctEntities to count
// exactly the entity strings of the accepted snippets, live and after a
// checkpoint restore from freshly decoded (uninterned) snippets.
func TestDistinctEntitiesExact(t *testing.T) {
	const n = 10000 // snippets, two entities of their own each
	mk := func(i int) *event.Snippet {
		src := event.SourceID("nyt")
		if i%2 == 1 {
			src = "wsj"
		}
		s := &event.Snippet{
			ID:        event.SnippetID(i + 1),
			Source:    src,
			Timestamp: day(1).Add(time.Duration(i) * time.Hour),
			Entities: []event.Entity{
				event.Entity(fmt.Sprintf("DISTINCT%05da", i)),
				event.Entity(fmt.Sprintf("DISTINCT%05db", i)),
			},
			Terms: []event.Term{{Token: fmt.Sprintf("distinct%d", i%7), Weight: 1}},
		}
		s.Normalize()
		return s
	}
	e := NewEngine(DefaultOptions())
	var accepted []*event.Snippet
	for i := 0; i < n; i++ {
		sn := mk(i)
		if _, err := e.Ingest(sn); err != nil {
			t.Fatal(err)
		}
		accepted = append(accepted, sn)
		if i%97 == 0 { // a redelivery
			if _, err := e.Ingest(mk(i)); !errors.Is(err, ErrDuplicate) {
				t.Fatalf("redelivery of snippet %d: %v, want ErrDuplicate", i+1, err)
			}
		}
	}
	refused := mk(n / 2)
	refused.Entities = []event.Entity{"DISTINCT_REFUSED"}
	if _, err := e.Ingest(refused); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("refused snippet: %v, want ErrDuplicate", err)
	}

	distinct := make(map[event.Entity]bool)
	for _, sn := range accepted {
		for _, ent := range sn.Entities {
			distinct[ent] = true
		}
	}
	want := uint64(len(distinct))
	if want < 20000 {
		t.Fatalf("only %d distinct entities ingested", want)
	}
	if got := e.DistinctEntities(); got != want {
		t.Fatalf("DistinctEntities = %d, want %d", got, want)
	}

	var buf bytes.Buffer
	if err := e.Checkpoint().Write(&buf); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	decoded := make([]*event.Snippet, n)
	for i := range decoded {
		decoded[i] = mk(i)
	}
	e2, err := RestoreEngineArchived(DefaultOptions(), decoded, cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.DistinctEntities(); got != want {
		t.Fatalf("DistinctEntities after restore = %d, want %d", got, want)
	}
}

// TestEngineSoakBoundedState streams a larger corpus with aggressive
// repair and verifies internal bookkeeping stays bounded: the aligner and
// identifiers must not accumulate unbounded stale story references, and
// the final result must still cover every snippet exactly once.
func TestEngineSoakBoundedState(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	gen := datagen.DefaultConfig()
	gen.Sources = 6
	gen.Stories = 40
	gen.EventsPerStory = 30
	corpus := datagen.Generate(gen)

	opts := DefaultOptions()
	opts.Identify.RepairEvery = 16 // aggressive churn
	opts.AutoAlignEvery = 997
	e := NewEngine(opts)
	if got := e.IngestAll(corpus.Snippets); got != len(corpus.Snippets) {
		t.Fatalf("accepted %d of %d", got, len(corpus.Snippets))
	}
	res := e.Align()

	covered := map[event.SnippetID]bool{}
	for _, is := range res.Integrated {
		for _, sn := range is.Snippets() {
			if covered[sn.ID] {
				t.Fatalf("snippet %d in two integrated stories", sn.ID)
			}
			covered[sn.ID] = true
		}
	}
	if len(covered) != len(corpus.Snippets) {
		t.Fatalf("result covers %d of %d", len(covered), len(corpus.Snippets))
	}
	// Repair churn actually happened (the soak is meaningless otherwise).
	splits, merges := 0, 0
	for _, src := range e.Sources() {
		st, _, _ := e.SourceStats(src)
		splits += st.Splits
		merges += st.Merges
	}
	if splits+merges == 0 {
		t.Fatal("no repair churn during soak")
	}
}

// holdsCheck is a result sink that checks, at every publish, that the
// aligner holds exactly the live stories of every registered source, each
// at its current Gen.
type holdsCheck struct {
	t       *testing.T
	e       *Engine
	name    string
	settles int
}

func (c *holdsCheck) Publish(*align.Result) {
	c.settles++
	live := 0
	for _, src := range c.e.Sources() {
		for _, st := range identifierOf(c.e, src).Stories() {
			live++
			if !c.e.aligner.Holds(st.ID, st.Gen()) {
				c.t.Fatalf("%s settle %d: aligner does not hold story %d of %s at Gen %d", c.name, c.settles, st.ID, src, st.Gen())
			}
		}
	}
	if n := c.e.aligner.Len(); n != live {
		c.t.Fatalf("%s settle %d: aligner holds %d stories, sources have %d live", c.name, c.settles, n, live)
	}
}

// TestEngineAlignerHoldsLiveStories checks the settle's exact dirty set:
// after every settle the aligner holds each registered source's live
// stories at their Gen and nothing else. Refinement, identifier repair, story retirement and
// reactivation, a mid-stream source removal (whose later snippets
// re-register it) and a checkpoint restore all change stories between
// settles.
func TestEngineAlignerHoldsLiveStories(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		gen := datagen.DefaultConfig()
		gen.Seed = seed
		gen.Sources = 4
		gen.Stories = 12
		gen.EventsPerStory = 12
		corpus := datagen.Generate(gen)
		arrivals := corpus.Shuffled(0.3, 40, seed)

		opts := DefaultOptions()
		opts.RefineOnAlign = true
		opts.AutoAlignEvery = 32
		opts.Identify.RepairEvery = 8
		mgr, err := retire.Open(retire.Config{
			Window:      15 * 24 * time.Hour,
			Dir:         t.TempDir(),
			IdentWindow: opts.Identify.Window,
			AlignSlack:  opts.Align.Slack,
		}, newSnippetStore(corpus.Snippets, nil))
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("seed %d", seed)
		check := &holdsCheck{t: t, name: name}
		attach := func(e *Engine) {
			check.e = e
			e.SetRetirer(mgr)
			e.AddResultSink(check)
		}
		e := NewEngine(opts)
		attach(e)
		removed := corpus.Sources[1]
		var held []*event.Snippet // the snippets a checkpoint covers
		for i, sn := range arrivals {
			switch i {
			case len(arrivals) / 2:
				e.RemoveSource(removed)
				held = slices.DeleteFunc(held, func(s *event.Snippet) bool { return s.Source == removed })
			case 3 * len(arrivals) / 4:
				if e, err = RestoreEngineArchived(opts, held, e.Checkpoint(), mgr.Has); err != nil {
					t.Fatalf("%s: restore: %v", name, err)
				}
				attach(e)
			}
			if _, err := e.Ingest(sn); err != nil {
				t.Fatalf("%s: ingest %d: %v", name, sn.ID, err)
			}
			held = append(held, sn)
		}
		e.Align()
		v := mgr.Snapshot()
		if v.Retired == 0 || v.Reactivated == 0 || check.settles < len(arrivals)/32 {
			t.Fatalf("%s: %d settles, %d stories retired, %d reactivated: the check saw too little",
				name, check.settles, v.Retired, v.Reactivated)
		}
		t.Logf("%s: %d settles, %d stories retired, %d reactivated", name, check.settles, v.Retired, v.Reactivated)
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// snippetStore stands in for the event store a retirer's archive records
// point into: it holds the snippets an engine ingests and hands out
// copies, as the store decodes them.
type snippetStore struct {
	byID    map[event.SnippetID]*event.Snippet
	syncErr error
}

func newSnippetStore(sns []*event.Snippet, syncErr error) *snippetStore {
	s := &snippetStore{byID: make(map[event.SnippetID]*event.Snippet, len(sns)), syncErr: syncErr}
	for _, sn := range sns {
		s.byID[sn.ID] = sn
	}
	return s
}

func (s *snippetStore) Sync() error { return s.syncErr }

func (s *snippetStore) Get(id event.SnippetID) *event.Snippet {
	if sn := s.byID[id]; sn != nil {
		return sn.Clone()
	}
	return nil
}

// storyMembers renders an integrated story's members and their snippets.
func storyMembers(is *event.IntegratedStory) string {
	var b strings.Builder
	for _, m := range is.Members {
		fmt.Fprintf(&b, "%s/%d:", m.Source, m.ID)
		for _, sn := range m.Snippets {
			fmt.Fprintf(&b, "%d,", sn.ID)
		}
		b.WriteByte('|')
	}
	return b.String()
}

// TestRetireStoreSyncFailureDetachesNothing: when the store an archive
// record would point into cannot sync, Archive fails and the engine
// keeps every story resident, so its settles publish what an engine
// without retirement publishes.
func TestRetireStoreSyncFailureDetachesNothing(t *testing.T) {
	gen := datagen.DefaultConfig()
	gen.Seed, gen.Sources, gen.Stories, gen.EventsPerStory = 1, 4, 12, 10
	corpus := datagen.Generate(gen)
	opts := DefaultOptions()
	opts.AutoAlignEvery = 16
	mgr, err := retire.Open(retire.Config{
		Window:      10 * 24 * time.Hour,
		Dir:         t.TempDir(),
		IdentWindow: opts.Identify.Window,
		AlignSlack:  opts.Align.Slack,
	}, newSnippetStore(corpus.Snippets, errors.New("disk gone")))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	e, plain := NewEngine(opts), NewEngine(opts)
	e.SetRetirer(mgr)
	before := metRetireArchiveErrors.Value()
	for _, sn := range corpus.Snippets {
		if _, err := e.Ingest(sn); err != nil {
			t.Fatal(err)
		}
		if _, err := plain.Ingest(sn.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	got, want := e.Align(), plain.Align()
	if metRetireArchiveErrors.Value() == before {
		t.Fatal("no retirement was attempted: the test exercised nothing")
	}
	if v := mgr.Snapshot(); v.Retired != 0 || v.Archived != 0 || v.ArchivedBytes != 0 {
		t.Fatalf("retired over a failing store: %+v", v)
	}
	if len(got.Integrated) != len(want.Integrated) {
		t.Fatalf("%d integrated stories, want %d as without retirement", len(got.Integrated), len(want.Integrated))
	}
	for i := range want.Integrated {
		if g, w := storyMembers(got.Integrated[i]), storyMembers(want.Integrated[i]); g != w {
			t.Fatalf("integrated story %d: %s, want %s", i, g, w)
		}
	}
}
