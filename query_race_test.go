package storypivot

import (
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/experiments"
)

// TestQueryIngestRace hammers the indexed query path while every source
// ingests from its own goroutine and one source is removed mid-stream.
// Run under -race it proves the lock discipline: queries take the index
// read lock only, publishes (and the posting deletes they make)
// serialise behind the write lock, and no path reads identifier state
// without Engine.mu.
func TestQueryIngestRace(t *testing.T) {
	corpus := datagen.Generate(experiments.CorpusScale(800, 4, 29))
	p, err := New(WithRefinement(true), WithAutoAlign(64))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	bySource := corpus.BySource()
	ent := corpus.Snippets[0].Entities[0]
	query := corpus.Snippets[0].Terms[0].Token
	var victim SourceID
	for src := range bySource {
		victim = src
		break
	}

	// One writer per source; the victim source is removed
	// halfway through its own stream (and keeps ingesting after, which
	// re-registers it — removal under fire is the point).
	var writers sync.WaitGroup
	for src, sns := range bySource {
		src, sns := src, sns
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i, sn := range sns {
				if err := p.Ingest(sn); err != nil {
					t.Errorf("ingest %s: %v", src, err)
					return
				}
				if src == victim && i == len(sns)/2 {
					p.RemoveSource(victim)
				}
			}
		}()
	}

	// Query hammers run until the writers finish.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				p.SearchN(query, 0, 10)
				p.StoriesByEntityN(ent, 0, -1)
				p.TimelineN(ent, 5, 20)
				p.Index().Stats()
			}
		}()
	}

	writers.Wait()
	close(done)
	readers.Wait()

	// Sanity: the surviving state still answers queries consistently.
	p.Result()
	got, total := p.TimelineN(ent, 0, -1)
	if total != len(got) {
		t.Fatalf("timeline total %d != len %d", total, len(got))
	}
}
