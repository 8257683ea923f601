package storypivot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/qcache"
)

// TestCacheCoherenceDifferential is the correctness oracle for the
// query-result cache, the companion of TestQueryDifferential: it
// replays the same synthetic corpora — refinement on, a source removed
// mid-stream — through a pipeline with a qcache over its index, and at
// every checkpoint fetches a panel of paged search/timeline responses
// through the cache protocol the HTTP layer uses (Get → index query →
// Put with the query's stamp, after the settle a write runs before its
// ack). Every response — whether it was a HIT stored at an earlier
// checkpoint or a fresh MISS — must be byte-identical to an uncached
// computation at the same settled snapshot. A HIT that survives 150
// ingests and still matches is the property under test: the index's
// publish stamps never leave an entry alive whose content changed.
func TestCacheCoherenceDifferential(t *testing.T) {
	for _, seed := range []int64{7, 21, 63} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			corpus := datagen.Generate(experiments.CorpusScale(600, 5, seed))
			p, err := New(WithRefinement(true), WithRepairEvery(100))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			// No TTL, no cap, no sweeper: only the stamps may drop
			// entries, so a stale survivor cannot hide behind an expiry.
			cache := qcache.New(qcache.Config{TTL: -1, MaxEntries: -1, SweepInterval: -1},
				func() *index.Index { return p.Index() })
			f := &cachedFetcher{p: p, c: cache}

			entities := panelEntities(corpus, 8)
			queries := panelQueries(corpus, 6)

			removeAt := len(corpus.Snippets) * 3 / 5
			for i, sn := range corpus.Snippets {
				if err := p.Ingest(sn); err != nil {
					t.Fatal(err)
				}
				if i == removeAt {
					src := corpus.Snippets[0].Source
					if !p.RemoveSource(src) {
						t.Fatalf("RemoveSource(%s) had nothing to remove", src)
					}
					f.comparePanel(t, entities, queries,
						fmt.Sprintf("after RemoveSource(%s)", src))
				}
				if (i+1)%150 == 0 {
					f.comparePanel(t, entities, queries, fmt.Sprintf("checkpoint %d", i+1))
				}
			}
			f.comparePanel(t, entities, queries, "final")
			t.Logf("seed %d: %d hits / %d lookups", seed, f.hits, f.lookups)
			if f.hits == 0 {
				t.Error("cache never served a hit: the coherence oracle exercised nothing")
			}
			if f.staleHits == 0 {
				// Hits on entries stored at a PREVIOUS checkpoint (i.e.
				// entries that lived through ingests) are the ones that
				// can be stale; a run without any would be vacuous.
				t.Error("no hit ever survived an ingest round: invalidation was never tested")
			}
		})
	}
}

// cachedFetcher mirrors internal/server's cachedQuery protocol at the
// pipeline layer (the HTTP-level twin lives in internal/server, which
// package storypivot cannot import).
type cachedFetcher struct {
	p *Pipeline
	c *qcache.Cache

	lookups   int
	hits      int
	staleHits int // hits served after at least one ingest since the Put
	round     int // bumped per comparePanel; entries carry the round they were stored in
	stored    map[string]int
}

// pageShapes are the paged windows each panel query is fetched with.
var pageShapes = []struct{ off, lim int }{{0, 5}, {5, 5}, {0, 50}, {3, 4}}

func (f *cachedFetcher) comparePanel(t *testing.T, entities []Entity, queries []string, at string) {
	t.Helper()
	f.round++
	for _, e := range entities {
		for _, ps := range pageShapes {
			got := f.fetch(t, "timeline", string(e), ps.off, ps.lim)
			sns, total := f.p.TimelineN(e, ps.off, ps.lim)
			want := encodePage(snippetIDs(sns), total)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: cached timeline(%s, %d, %d) diverged:\ncached: %s\nfresh:  %s",
					at, e, ps.off, ps.lim, got, want)
			}
		}
	}
	for _, q := range queries {
		for _, ps := range pageShapes {
			got := f.fetch(t, "search", q, ps.off, ps.lim)
			hits, total := f.p.SearchN(q, ps.off, ps.lim)
			want := encodePage(storyIDs(hits), total)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: cached search(%q, %d, %d) diverged:\ncached: %s\nfresh:  %s",
					at, q, ps.off, ps.lim, got, want)
			}
		}
	}
}

// fetch is the cache protocol under test, as the HTTP handlers run it,
// preceded by the settle a server write path runs before its ack (it
// runs pending publishes, which stamp what they change): consult the
// cache, and on a miss query the index and Put the page with the
// query's stamp.
func (f *cachedFetcher) fetch(t *testing.T, endpoint, query string, off, lim int) []byte {
	t.Helper()
	if f.stored == nil {
		f.stored = make(map[string]int)
	}
	f.p.Result() // settle
	key := qcache.Key(endpoint, query, off, lim)
	f.lookups++
	if body, etag, ok := f.c.Get(key); ok {
		f.hits++
		if f.stored[key] < f.round {
			f.staleHits++
		}
		if want := qcache.ETagFor(body); etag != want {
			t.Fatalf("ETag drift on %s: stored %s, body hashes to %s", key, etag, want)
		}
		return body
	}
	var body []byte
	var st index.Stamp
	switch endpoint {
	case "timeline":
		var sns []*Snippet
		var total int
		sns, total, st = f.p.Index().Timeline(Entity(query), off, lim)
		body = encodePage(snippetIDs(sns), total)
	case "search":
		var hits []*IntegratedStory
		var total int
		hits, total, st = f.p.Index().Search(query, off, lim)
		body = encodePage(storyIDs(hits), total)
	}
	f.c.Put(key, st, body, qcache.ETagFor(body))
	f.stored[key] = f.round
	return body
}

// encodePage is the canonical byte encoding compared by the oracle —
// a stand-in for the HTTP layer's JSON page views with the same
// sensitivity: any change in membership, order, or total changes the
// bytes.
func encodePage(ids []uint64, total int) []byte {
	b, err := json.Marshal(struct {
		Total int      `json:"total"`
		IDs   []uint64 `json:"ids"`
	}{total, ids})
	if err != nil {
		panic(err)
	}
	return b
}
