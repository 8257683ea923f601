package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/qcache"
)

// TestCacheHitAllocs pins the allocation profile of the cached serve
// paths. A hit re-runs neither the query nor the JSON encoder, so its
// cost is parsing the request, one cache lookup, and copying stored
// bytes to the wire; a 304 writes no body at all. The pins hold the
// hit path to fixed per-request overhead (request parse + recorder
// plumbing) — if a change re-introduces per-hit encoding or view
// building, these numbers jump by an order of magnitude.
func TestCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins hold only in normal builds")
	}
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

	warm := httptest.NewRequest(http.MethodGet, "/api/search?q=ukraine&limit=10", nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, warm)
	if rec.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("warmup X-Cache = %q", rec.Header().Get("X-Cache"))
	}
	etag := rec.Header().Get("ETag")

	cases := []struct {
		name string
		hdr  [2]string // optional header key/value
		code int
		max  float64
	}{
		// Full-body hit: request parse, lookup, header set, body copy.
		{"Hit200", [2]string{}, http.StatusOK, 30},
		// Conditional hit: same minus the body write.
		{"Hit304", [2]string{"If-None-Match", etag}, http.StatusNotModified, 30},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func() *httptest.ResponseRecorder {
				req := httptest.NewRequest(http.MethodGet, "/api/search?q=ukraine&limit=10", nil)
				if tc.hdr[0] != "" {
					req.Header.Set(tc.hdr[0], tc.hdr[1])
				}
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, req)
				return rec
			}
			rec := run()
			if rec.Code != tc.code || rec.Header().Get("X-Cache") != "HIT" {
				t.Fatalf("status %d X-Cache %q, want %d HIT", rec.Code, rec.Header().Get("X-Cache"), tc.code)
			}
			got := testing.AllocsPerRun(200, func() { run() })
			t.Logf("%s: %.1f allocs/op", tc.name, got)
			if got > tc.max {
				t.Errorf("%s allocates %.1f per op, pinned at %.0f — did the hit path regain encoding?",
					tc.name, got, tc.max)
			}
		})
	}
}

// TestCacheMissAllocs pins the allocation profile of a cache miss whose
// story and snippet slots are warm: the query runs and the page envelope
// is written, but every result is a memoized fragment already in the
// page's layout, so the cost is the index query, a slice of fragment
// pointers and the one exact-size body the envelope writer splices them
// into. If a change makes the miss path build views again (maps, sorts,
// reflective encoding per result), these numbers grow several-fold.
func TestCacheMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins hold only in normal builds")
	}
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
		name, path string
		max        float64
	}{
		// Measured 49, 37 and 36; encoding the page through encoding/json
		// (and formatting the ETag with fmt) cost 51, 39 and 38, and the
		// view-building path before it 100, 64 and 72 on the same requests.
		{"Search", "/api/search?q=plane+crash&limit=10", 49},
		{"ByEntity", "/api/stories/by-entity?entity=UKR&limit=10", 37},
		{"Timeline", "/api/timeline?entity=UKR&limit=20", 36},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func() *httptest.ResponseRecorder {
				req := httptest.NewRequest(http.MethodGet, tc.path, nil)
				req.Header.Set("Cache-Control", "no-store")
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, req)
				return rec
			}
			rec := run() // fills the slots
			if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "BYPASS" {
				t.Fatalf("status %d X-Cache %q, want 200 BYPASS", rec.Code, rec.Header().Get("X-Cache"))
			}
			if !bytes.Contains(rec.Body.Bytes(), []byte(`"id"`)) {
				t.Fatalf("%s answers no result; the pin would measure nothing: %s", tc.path, rec.Body)
			}
			got := testing.AllocsPerRun(200, func() { run() })
			t.Logf("%s: %.1f allocs/op", tc.name, got)
			if got > tc.max {
				t.Errorf("%s miss allocates %.1f per op, pinned at %.0f — did the miss path regain view building?",
					tc.name, got, tc.max)
			}
		})
	}
}
