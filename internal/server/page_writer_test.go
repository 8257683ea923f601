package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	storypivot "repro"
	"repro/internal/event"
	"repro/internal/qcache"
)

// pageWriterPaths lists, per query, every page shape the envelope writer
// answers: plain and scored, a default page, a page past the end (empty
// results, true total) and a deep page above the default cap.
func pageWriterPaths(entities []event.Entity, queries []string) []string {
	var paths []string
	for _, e := range entities {
		q := url.QueryEscape(string(e))
		paths = append(paths,
			"/api/timeline?entity="+q,
			"/api/timeline?entity="+q+"&offset=100000",
			"/api/timeline?entity="+q+"&limit=2000&deep=1",
			"/api/stories/by-entity?entity="+q,
			"/api/stories/by-entity?entity="+q+"&scores=1",
			"/api/stories/by-entity?entity="+q+"&scores=1&offset=100000",
			"/api/stories/by-entity?entity="+q+"&scores=1&limit=2000&deep=1",
		)
	}
	for _, q := range queries {
		q = url.QueryEscape(q)
		paths = append(paths,
			"/api/search?q="+q,
			"/api/search?q="+q+"&offset=100000",
			"/api/search?q="+q+"&scores=1",
			"/api/search?q="+q+"&scores=1&limit=2000&deep=1",
		)
	}
	return paths
}

// TestPageWriterMatchesStructOracle: the search, by-entity and timeline
// bodies the envelope writer splices from page-layout fragments equal
// encoding/json's indented encoding of the SearchPageView and
// TimelinePageView struct oracle, scored and unscored, on empty, default
// and deep pages, with the cache off (the body is written as is) and on
// (the body is stored, then served as a hit), and on a tiered pipeline
// whose snippet text is hydrated from the store.
func TestPageWriterMatchesStructOracle(t *testing.T) {
	corpus := tierDiffCorpus(400, 4, 11)
	paths := pageWriterPaths(corpusEntities(corpus, 5), corpusQueries(corpus, 4))

	flat, err := New(storypivot.WithRefinement(true))
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	cached, err := New(storypivot.WithRefinement(true))
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	cached.EnableCache(qcache.Config{TTL: -1, MaxEntries: -1, SweepInterval: -1})
	tiered, err := New(
		storypivot.WithRefinement(true),
		storypivot.WithStorage(t.TempDir()),
		storypivot.WithTieredStorage(4, true),
		storypivot.WithTierChunkRows(32),
		storypivot.WithTierColdCache(1, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	servers := map[string]*Server{"flat": flat, "cached": cached, "tiered": tiered}
	for _, s := range servers {
		for _, sn := range corpus.Snippets {
			if err := s.Pipeline().Ingest(sn.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		s.Pipeline().Result()
	}

	var scored, empty, deep int
	for name, s := range servers {
		p, mux := s.Pipeline(), s.rawMux()
		// Twice: the first round fills the fragment slots (and the
		// cache), the second reads them back.
		for round := 0; round < 2; round++ {
			for _, path := range paths {
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s %s: status %d: %s", name, path, rec.Code, rec.Body)
				}
				want := oracleBody(t, p, path)
				if rec.Body.String() != string(want) {
					t.Fatalf("%s round %d %s: the envelope writer diverges from the struct oracle\nwriter: %.600s\noracle: %.600s",
						name, round, path, rec.Body, want)
				}
				if name == "cached" && round == 1 && rec.Header().Get("X-Cache") != "HIT" {
					t.Fatalf("%s: second read X-Cache %q, want HIT", path, rec.Header().Get("X-Cache"))
				}
				if round > 0 || name != "flat" {
					continue
				}
				body := rec.Body.String()
				switch {
				case strings.Contains(body, `"scores": [`):
					scored++
				case strings.Contains(body, `"results": []`):
					empty++
				}
				if strings.Contains(path, "deep=1") && strings.Count(body, `"id":`) > 50 {
					deep++
				}
			}
		}
	}
	if scored == 0 || empty == 0 || deep == 0 {
		t.Fatalf("scored pages %d, empty pages %d, deep pages past the default cap %d: the oracle exercised too little",
			scored, empty, deep)
	}
}

// TestCachedPageBodiesAreExactSize: the cache keeps the slice a miss
// hands it, capacity included, so every page body a real handler stores,
// scored or not, must have no spare capacity, and must be the body the
// miss answered.
func TestCachedPageBodiesAreExactSize(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.EnableCache(qcache.Config{TTL: -1, MaxEntries: -1, SweepInterval: -1})
	s.Preload(demoDocs()...)
	if err := s.SelectAll(); err != nil {
		t.Fatal(err)
	}
	mux := s.rawMux()
	cases := []struct {
		path, endpoint, query string
		offset, limit         int
	}{
		{"/api/search?q=plane+crash", "search", "plane crash", 0, 50},
		{"/api/search?q=plane+crash&scores=1", "search+scores", "plane crash", 0, 50},
		{"/api/search?q=plane+crash&scores=1&offset=100", "search+scores", "plane crash", 100, 50},
		{"/api/stories/by-entity?entity=UKR&limit=3", "by-entity", "UKR", 0, 3},
		{"/api/stories/by-entity?entity=UKR&scores=1&limit=3", "by-entity+scores", "UKR", 0, 3},
		{"/api/timeline?entity=UKR", "timeline", "UKR", 0, 50},
		{"/api/timeline?entity=UKR&offset=1&limit=2", "timeline", "UKR", 1, 2},
		{"/api/timeline?entity=nowhere", "timeline", "nowhere", 0, 50},
	}
	var results int
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.path, nil))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "MISS" {
			t.Fatalf("%s: status %d X-Cache %q, want 200 MISS", tc.path, rec.Code, rec.Header().Get("X-Cache"))
		}
		body, _, ok := s.cache.Get(qcache.Key(tc.endpoint, tc.query, tc.offset, tc.limit))
		if !ok {
			t.Fatalf("%s: nothing stored under (%s, %q, %d, %d)", tc.path, tc.endpoint, tc.query, tc.offset, tc.limit)
		}
		if cap(body) != len(body) {
			t.Errorf("%s: stored body of %d bytes has capacity %d", tc.path, len(body), cap(body))
		}
		if string(body) != rec.Body.String() {
			t.Errorf("%s: stored body differs from the answered one", tc.path)
		}
		results += strings.Count(string(body), `"id":`)
	}
	if results == 0 {
		t.Fatal("no stored page carries a result: the check measured nothing")
	}
}
