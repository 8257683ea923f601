package stream

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/event"
)

// TestEngineConcurrentIngestCounts hammers one engine from many
// goroutines and checks that no snippet is lost or double-counted at
// any layer: the engine's own Ingested() counter, the obs ingest
// counter, and the per-source story memberships must all agree exactly
// with the number of snippets sent.
func TestEngineConcurrentIngestCounts(t *testing.T) {
	const (
		workers   = 8
		perWorker = 250
		total     = workers * perWorker
	)
	e := NewEngine(DefaultOptions())
	ingestedBefore := metIngested.Value()
	dupesBefore := metDuplicates.Value()

	// Each worker is its own source with disjoint snippet IDs, so every
	// ingest is unique and must be accepted.
	var wg sync.WaitGroup
	errs := make(chan error, total)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := event.SourceID(fmt.Sprintf("src%d", w))
			for i := 0; i < perWorker; i++ {
				id := event.SnippetID(w*perWorker + i + 1)
				ents := []event.Entity{event.Entity(fmt.Sprintf("ENT%d", w))}
				if _, err := e.Ingest(snip(id, src, 1+i%28, ents, "crash", "plane")); err != nil {
					errs <- fmt.Errorf("worker %d snippet %d: %w", w, id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := e.Ingested(); got != total {
		t.Fatalf("Ingested() = %d, want %d", got, total)
	}
	if got := metIngested.Value() - ingestedBefore; got != total {
		t.Fatalf("obs ingest counter advanced by %d, want %d", got, total)
	}
	if got := metDuplicates.Value() - dupesBefore; got != 0 {
		t.Fatalf("obs duplicate counter advanced by %d, want 0", got)
	}

	// Every accepted snippet must be a member of exactly one per-source
	// story; summing story sizes re-derives the ingest count.
	seen := make(map[event.SnippetID]bool, total)
	var storyTotal int
	for _, src := range e.Sources() {
		for _, st := range e.Stories(src) {
			storyTotal += len(st.Snippets)
			for _, sn := range st.Snippets {
				if seen[sn.ID] {
					t.Fatalf("snippet %d appears in more than one story", sn.ID)
				}
				seen[sn.ID] = true
			}
		}
	}
	if storyTotal != total {
		t.Fatalf("story membership total = %d, want %d (ingest counter and story state diverged)", storyTotal, total)
	}

	// Re-ingesting an already-seen snippet must be rejected as a
	// duplicate and counted as such, not silently re-admitted.
	if _, err := e.Ingest(snip(1, "src0", 1, []event.Entity{"ENT0"}, "crash")); err == nil {
		t.Fatal("duplicate ingest accepted")
	}
	if got := metDuplicates.Value() - dupesBefore; got != 1 {
		t.Fatalf("duplicate counter advanced by %d, want 1", got)
	}
	if got := e.Ingested(); got != total {
		t.Fatalf("Ingested() moved to %d after duplicate, want %d", got, total)
	}
}

// TestEngineConcurrentIngestWithSourceChurn races ingestion against
// source removal, re-registration, checkpointing, and result reads —
// the paths where the sharded engine's registry lock, per-shard gone
// flags, and the aligner's snapshot discipline all interact. Run under
// -race this is the main correctness check for the per-source sharding;
// without churn a stale shard could be processed into after removal, or
// the aligner could observe a story mid-mutation.
func TestEngineConcurrentIngestWithSourceChurn(t *testing.T) {
	const (
		workers   = 4
		perWorker = 200
	)
	opts := DefaultOptions()
	opts.AutoAlignEvery = 32
	e := NewEngine(opts)

	var ingesters, aux sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		ingesters.Add(1)
		go func(w int) {
			defer ingesters.Done()
			src := event.SourceID(fmt.Sprintf("churn%d", w))
			for i := 0; i < perWorker; i++ {
				id := event.SnippetID(w*perWorker + i + 1)
				ents := []event.Entity{event.Entity(fmt.Sprintf("ENT%d", w))}
				// Each snippet is offered once, so even an ingest that
				// races a removal and lands in the re-created shard finds
				// it unassigned: no error, ErrDuplicate included, is legal.
				if _, err := e.Ingest(snip(id, src, 1+i%28, ents, "crash", "plane")); err != nil {
					t.Errorf("worker %d snippet %d: %v", w, id, err)
					return
				}
			}
		}(w)
	}
	// Churn goroutine: remove and implicitly re-add (via Ingest's
	// auto-registration) the workers' sources while they ingest.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.RemoveSource(event.SourceID(fmt.Sprintf("churn%d", i%workers)))
		}
	}()
	// Reader goroutine: results and checkpoints must stay internally
	// consistent while everything above is in flight.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if res := e.Result(); res != nil {
				for _, is := range res.Integrated {
					_ = is.Len()
				}
			}
			cp := e.Checkpoint()
			for _, sc := range cp.Sources {
				_ = len(sc.Assign)
			}
			for _, src := range e.Sources() {
				for _, st := range e.Stories(src) {
					if len(st.Snippets) != st.Len() {
						t.Error("story snapshot internally inconsistent")
						return
					}
				}
			}
		}
	}()
	// Ingest workers finish on their own; then stop the churn/reader
	// loops and wait for them to drain.
	ingesters.Wait()
	close(stop)
	aux.Wait()

	// Post-churn sanity: the surviving sources' stories form a partition
	// (no snippet in two stories), even though totals depend on timing.
	seen := make(map[event.SnippetID]bool)
	for _, src := range e.Sources() {
		for _, st := range e.Stories(src) {
			for _, sn := range st.Snippets {
				if seen[sn.ID] {
					t.Fatalf("snippet %d appears in more than one story after churn", sn.ID)
				}
				seen[sn.ID] = true
			}
		}
	}
}

// TestEngineConcurrentIngestWithAutoAlign repeats the concurrent
// ingest while auto-alignment fires every few snippets, so alignment
// runs interleave with ingestion on other goroutines. Run under -race
// this exercises the engine's lock discipline end to end.
func TestEngineConcurrentIngestWithAutoAlign(t *testing.T) {
	const (
		workers   = 4
		perWorker = 150
		total     = workers * perWorker
	)
	opts := DefaultOptions()
	opts.AutoAlignEvery = 64
	e := NewEngine(opts)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := event.SourceID(fmt.Sprintf("s%d", w))
			for i := 0; i < perWorker; i++ {
				id := event.SnippetID(w*perWorker + i + 1)
				// Fresh entity slice per snippet: Normalize sorts in
				// place, and an ingested snippet belongs to the engine —
				// sharing one backing array across snippets would have
				// the test mutating engine-owned state.
				ents := []event.Entity{"UKR", "MAL"}
				if _, err := e.Ingest(snip(id, src, 1+i%28, ents, "crash")); err != nil {
					t.Errorf("ingest %d: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := e.Ingested(); got != total {
		t.Fatalf("Ingested() = %d, want %d", got, total)
	}
	res := e.Result()
	if res == nil || len(res.Integrated) == 0 {
		t.Fatal("no integrated stories after concurrent ingest with auto-align")
	}
}

// TestEngineSourceStatsConcurrentWithIngest reads a source's statistics
// and assignments through the engine while another goroutine ingests into
// the same source. Under -race it fails if either accessor reads the
// identifier outside its shard lock.
func TestEngineSourceStatsConcurrentWithIngest(t *testing.T) {
	const n = 300
	e := NewEngine(DefaultOptions())
	ents := []event.Entity{"UKR", "MAL"}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= n; i++ {
			if _, err := e.Ingest(snip(event.SnippetID(i), "nyt", 1+i%28, ents, "crash", "plane")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for reads := 0; ; reads++ {
		select {
		case <-done:
			st, stories, ok := e.SourceStats("nyt")
			if !ok || st.Processed != n || stories == 0 {
				t.Fatalf("after ingest: SourceStats = %+v, %d stories, %v", st, stories, ok)
			}
			if e.StoryOf("nyt", n) == 0 {
				t.Fatalf("after ingest: snippet %d has no story", n)
			}
			return
		default:
		}
		if st, stories, ok := e.SourceStats("nyt"); ok && stories > st.Processed {
			t.Fatalf("%d stories from %d snippets", stories, st.Processed)
		}
		e.StoryOf("nyt", event.SnippetID(1+reads%n))
	}
}
