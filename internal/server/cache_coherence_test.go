package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	storypivot "repro"
	"repro/internal/datagen"
	"repro/internal/event"
	"repro/internal/experiments"
	"repro/internal/qcache"
	"repro/internal/text"
)

// TestHTTPCacheCoherence is the HTTP-level twin of the pipeline-layer
// TestCacheCoherenceDifferential (repro root): it drives the real
// handlers — ETag computation, 304 logic, Cache-Control handling and
// all — over synthetic corpora with refinement on and a source removed
// mid-stream. At every checkpoint each panel URL is fetched twice with
// no ingest in between: once normally (may be served from cache, the
// interesting case) and once with Cache-Control: no-store (always a
// fresh compute at the same settled snapshot). The two responses must
// be byte-identical with identical ETags; a cached body that drifted
// from the live index would differ.
func TestHTTPCacheCoherence(t *testing.T) {
	for _, seed := range []int64{7, 21, 63} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			corpus := datagen.Generate(experiments.CorpusScale(400, 4, seed))
			s, err := New(storypivot.WithRefinement(true))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// No TTL, no cap, no sweeper: only the index's publish
			// stamps may drop entries, so a stale survivor cannot hide
			// behind an expiry.
			s.EnableCache(qcache.Config{TTL: -1, MaxEntries: -1, SweepInterval: -1})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			f := &httpFetcher{t: t, s: s, base: ts.URL, stored: map[string]int{}}
			entities := corpusEntities(corpus, 6)
			queries := corpusQueries(corpus, 4)

			removeAt := len(corpus.Snippets) * 3 / 5
			for i, sn := range corpus.Snippets {
				if err := s.Pipeline().Ingest(sn); err != nil {
					t.Fatal(err)
				}
				if i == removeAt {
					src := corpus.Snippets[0].Source
					if !s.Pipeline().RemoveSource(src) {
						t.Fatalf("RemoveSource(%s) had nothing to remove", src)
					}
					f.comparePanel(entities, queries, fmt.Sprintf("after RemoveSource(%s)", src))
				}
				if (i+1)%100 == 0 {
					f.comparePanel(entities, queries, fmt.Sprintf("checkpoint %d", i+1))
				}
			}
			f.comparePanel(entities, queries, "final")
			t.Logf("seed %d: %d hits / %d lookups (%d survived an ingest round)",
				seed, f.hits, f.lookups, f.staleHits)
			if f.hits == 0 {
				t.Error("cache never served a hit: the coherence oracle exercised nothing")
			}
			if f.staleHits == 0 {
				t.Error("no hit ever survived an ingest round: invalidation was never tested")
			}
		})
	}
}

// httpFetcher fetches panel URLs and tracks hit accounting per round so
// the test can prove entries actually survived ingests.
type httpFetcher struct {
	t    *testing.T
	s    *Server
	base string

	lookups   int
	hits      int
	staleHits int
	round     int
	stored    map[string]int // URL -> round its entry was stored (MISS seen)
}

var coherencePages = []struct{ off, lim int }{{0, 5}, {5, 5}, {0, 50}}

func (f *httpFetcher) comparePanel(entities []event.Entity, queries []string, at string) {
	f.t.Helper()
	// The test writes through the library, which does not settle; settle
	// once here, as the server's own write paths do before they return.
	f.s.Pipeline().Result()
	f.round++
	for _, e := range entities {
		for _, ps := range coherencePages {
			f.compareOne("/api/timeline", url.Values{"entity": {string(e)}}, ps.off, ps.lim, at)
		}
	}
	for _, q := range queries {
		for _, ps := range coherencePages {
			f.compareOne("/api/search", url.Values{"q": {q}}, ps.off, ps.lim, at)
		}
	}
}

func (f *httpFetcher) compareOne(path string, vals url.Values, off, lim int, at string) {
	f.t.Helper()
	vals.Set("offset", fmt.Sprint(off))
	vals.Set("limit", fmt.Sprint(lim))
	u := f.base + path + "?" + vals.Encode()

	gotBody, gotETag, xcache := f.get(u, "")
	f.lookups++
	if xcache == "HIT" {
		f.hits++
		if f.stored[u] < f.round {
			f.staleHits++
		}
	} else {
		f.stored[u] = f.round
	}
	freshBody, freshETag, freshX := f.get(u, "no-store")
	if freshX != "BYPASS" {
		f.t.Fatalf("%s: no-store fetch reported X-Cache %q, want BYPASS", at, freshX)
	}
	if !bytes.Equal(gotBody, freshBody) {
		f.t.Fatalf("%s: %s (X-Cache %s) diverged from fresh compute:\ncached: %s\nfresh:  %s",
			at, u, xcache, gotBody, freshBody)
	}
	if gotETag != freshETag {
		f.t.Fatalf("%s: %s ETag drift: cached %s, fresh %s", at, u, gotETag, freshETag)
	}
}

func (f *httpFetcher) get(u, cacheControl string) (body []byte, etag, xcache string) {
	f.t.Helper()
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		f.t.Fatal(err)
	}
	if cacheControl != "" {
		req.Header.Set("Cache-Control", cacheControl)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		f.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		f.t.Fatalf("GET %s = %d: %s", u, resp.StatusCode, body)
	}
	return body, resp.Header.Get("ETag"), resp.Header.Get("X-Cache")
}

// corpusEntities picks n frequent entities plus a guaranteed miss, in a
// deterministic order.
func corpusEntities(c *datagen.Corpus, n int) []event.Entity {
	freq := map[event.Entity]int{}
	for _, sn := range c.Snippets {
		for _, e := range sn.Entities {
			freq[e]++
		}
	}
	out := []event.Entity{"no_such_entity_zzz"}
	for len(out) < n {
		var best event.Entity
		bestN := -1
		for e, k := range freq {
			if k > bestN || (k == bestN && e < best) {
				best, bestN = e, k
			}
		}
		if bestN < 0 {
			break
		}
		delete(freq, best)
		out = append(out, best)
	}
	return out
}

// corpusQueries builds n search queries from corpus terms that survive
// the text pipeline unchanged, plus a guaranteed miss.
func corpusQueries(c *datagen.Corpus, n int) []string {
	seen := map[string]bool{}
	var stable []string
	for _, sn := range c.Snippets {
		for _, tm := range sn.Terms {
			if seen[tm.Token] {
				continue
			}
			seen[tm.Token] = true
			if toks := text.Pipeline(tm.Token); len(toks) == 1 && toks[0] == tm.Token {
				stable = append(stable, tm.Token)
			}
		}
		if len(stable) >= 2*n {
			break
		}
	}
	out := []string{"zzzzqq xqqqz"}
	for i := 0; i+1 < len(stable) && len(out) < n; i += 2 {
		out = append(out, stable[i]+" "+stable[i+1])
	}
	return out
}

// TestRebuildDuringMissServesNoStaleHit: a rebuild that swaps the
// pipeline after a cache miss loaded it, and before the miss read its
// index, leaves the miss holding a page of the swapped-out pipeline. That
// page must never be served as a hit: the next plain GET answers what the
// rebuilt pipeline holds.
func TestRebuildDuringMissServesNoStaleHit(t *testing.T) {
	s, ts := newCachedTestServer(t)
	u := ts.URL + "/api/search?q=giant"
	var once sync.Once
	s.missHook = func() {
		once.Do(func() {
			if ok, err := s.RemoveDocument("http://online.wsj.com/doc4.html"); !ok || err != nil {
				t.Errorf("RemoveDocument = %v, %v", ok, err)
			}
		})
	}
	total := func(body []byte) int {
		var page struct{ Total int }
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
		return page.Total
	}

	// The miss reads the pipeline it loaded before the rebuild.
	if r, b := doGet(t, u, nil); r.Header.Get("X-Cache") != "MISS" || total(b) != 1 {
		t.Fatalf("first fetch: X-Cache %q, total %d; want a MISS over the Google/Yelp story",
			r.Header.Get("X-Cache"), total(b))
	}
	r, b := doGet(t, u, nil)
	_, fresh := doGet(t, u, map[string]string{"Cache-Control": "no-store"})
	if total(fresh) != 0 {
		t.Fatalf("the rebuilt pipeline still finds the removed story: %s", fresh)
	}
	if !bytes.Equal(b, fresh) {
		t.Fatalf("after the rebuild a plain GET (X-Cache %s) served\n%s\nwhile the rebuilt pipeline answers\n%s",
			r.Header.Get("X-Cache"), b, fresh)
	}
}
