package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	storypivot "repro"
	"repro/internal/httpx"
	"repro/internal/qcache"
	"repro/internal/quota"
)

// newCachedTestServer is newTestServer plus a cache with no expiry, so
// conformance tests observe pure publish-stamp invalidation.
func newCachedTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	s.EnableCache(qcache.Config{TTL: -1, MaxEntries: -1, SweepInterval: -1})
	s.Preload(demoDocs()...)
	if err := s.SelectAll(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// doGet issues a GET with optional headers and returns the full
// response (body drained and closed).
func doGet(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestCacheHitHeaders: the first fetch computes and stores (MISS), the
// second is served from cache (HIT) byte-identically, with a stable
// ETag and Vary: X-API-Key on both.
func TestCacheHitHeaders(t *testing.T) {
	_, ts := newCachedTestServer(t)
	u := ts.URL + "/api/search?q=ukraine"

	r1, b1 := doGet(t, u, nil)
	if x := r1.Header.Get("X-Cache"); x != "MISS" {
		t.Fatalf("first fetch X-Cache = %q, want MISS", x)
	}
	r2, b2 := doGet(t, u, nil)
	if x := r2.Header.Get("X-Cache"); x != "HIT" {
		t.Fatalf("second fetch X-Cache = %q, want HIT", x)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached body differs from computed body")
	}
	e1, e2 := r1.Header.Get("ETag"), r2.Header.Get("ETag")
	if e1 == "" || e1 != e2 {
		t.Fatalf("ETag unstable across identical snapshots: %q vs %q", e1, e2)
	}
	for _, r := range []*http.Response{r1, r2} {
		if v := r.Header.Get("Vary"); v != "X-API-Key" {
			t.Fatalf("Vary = %q, want X-API-Key", v)
		}
	}
}

// TestIfNoneMatch304 covers conditional requests on both serve paths:
// a HIT revalidation and a MISS whose freshly computed ETag matches.
// 304s carry no body; weak-comparison forms (W/ prefix, list, *) match.
func TestIfNoneMatch304(t *testing.T) {
	_, ts := newCachedTestServer(t)
	u := ts.URL + "/api/timeline?entity=UKR"

	// Learn the ETag without storing anything (no-store), then send a
	// conditional request that takes the MISS path: the handler must
	// compute, store, and still answer 304.
	r0, _ := doGet(t, u, map[string]string{"Cache-Control": "no-store"})
	etag := r0.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on fresh response")
	}
	r1, b1 := doGet(t, u, map[string]string{"If-None-Match": etag})
	if r1.StatusCode != http.StatusNotModified || len(b1) != 0 {
		t.Fatalf("miss-path conditional = %d with %d body bytes, want 304 empty", r1.StatusCode, len(b1))
	}
	if x := r1.Header.Get("X-Cache"); x != "MISS" {
		t.Fatalf("miss-path conditional X-Cache = %q, want MISS", x)
	}

	// The entry is now stored; conditional requests revalidate on HIT.
	for _, inm := range []string{etag, "W/" + etag, `"bogus", ` + etag, "*"} {
		r, b := doGet(t, u, map[string]string{"If-None-Match": inm})
		if r.StatusCode != http.StatusNotModified || len(b) != 0 {
			t.Fatalf("If-None-Match %q = %d with %d body bytes, want 304 empty", inm, r.StatusCode, len(b))
		}
		if r.Header.Get("ETag") != etag {
			t.Fatalf("304 lost its ETag header (If-None-Match %q)", inm)
		}
	}
	// A non-matching validator gets the full 200.
	r2, b2 := doGet(t, u, map[string]string{"If-None-Match": `"0000000000000000"`})
	if r2.StatusCode != http.StatusOK || len(b2) == 0 {
		t.Fatalf("mismatched validator = %d with %d body bytes, want full 200", r2.StatusCode, len(b2))
	}
}

// TestETagChangesAfterRelevantIngest: ingesting a document that touches
// the queried entity invalidates the entry, so a conditional request
// with the stale validator gets a full 200 with a new ETag.
func TestETagChangesAfterRelevantIngest(t *testing.T) {
	s, ts := newCachedTestServer(t)
	u := ts.URL + "/api/timeline?entity=UKR"

	r1, _ := doGet(t, u, nil)
	etag1 := r1.Header.Get("ETag")
	if r2, _ := doGet(t, u, nil); r2.Header.Get("X-Cache") != "HIT" {
		t.Fatal("entry not cached before ingest")
	}

	if _, _, err := s.AddDocument(&storypivot.Document{
		Source: "nyt", URL: "http://nytimes.com/doc9.html", Published: day(19),
		Title: "Rebels Hand Over Black Boxes",
		Body:  "Separatist leaders in Ukraine handed over the black boxes from the plane that was shot down near Donetsk.",
	}); err != nil {
		t.Fatal(err)
	}

	r3, b3 := doGet(t, u, map[string]string{"If-None-Match": etag1})
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("stale validator after relevant ingest = %d, want 200 (stale 304!)", r3.StatusCode)
	}
	if x := r3.Header.Get("X-Cache"); x != "MISS" {
		t.Fatalf("post-ingest fetch X-Cache = %q, want MISS (entry should be invalidated)", x)
	}
	if etag3 := r3.Header.Get("ETag"); etag3 == etag1 {
		t.Fatalf("ETag unchanged after an ingest that altered the timeline: %s\nbody: %s", etag3, b3)
	}
}

// TestCacheControlBypass: no-cache skips the read but refreshes the
// entry (forced revalidation); no-store touches the cache not at all.
func TestCacheControlBypass(t *testing.T) {
	s, ts := newCachedTestServer(t)
	u := ts.URL + "/api/search?q=missile"

	// no-store on a cold URL computes but stores nothing.
	if r, _ := doGet(t, u, map[string]string{"Cache-Control": "no-store"}); r.Header.Get("X-Cache") != "BYPASS" {
		t.Fatalf("no-store X-Cache = %q, want BYPASS", r.Header.Get("X-Cache"))
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("no-store stored an entry: cache has %d", n)
	}

	// no-cache computes AND stores: the next normal fetch hits.
	if r, _ := doGet(t, u, map[string]string{"Cache-Control": "no-cache"}); r.Header.Get("X-Cache") != "BYPASS" {
		t.Fatalf("no-cache X-Cache = %q, want BYPASS", r.Header.Get("X-Cache"))
	}
	if r, _ := doGet(t, u, nil); r.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("fetch after no-cache refresh X-Cache = %q, want HIT", r.Header.Get("X-Cache"))
	}

	// no-store with an entry present leaves it alone: still a HIT after.
	if r, _ := doGet(t, u, map[string]string{"Cache-Control": "no-store"}); r.Header.Get("X-Cache") != "BYPASS" {
		t.Fatal("no-store with warm entry did not bypass")
	}
	if r, _ := doGet(t, u, nil); r.Header.Get("X-Cache") != "HIT" {
		t.Fatal("no-store evicted the warm entry")
	}
}

// TestQuota429VsGate429 proves the two throttle responses are
// distinguishable: the per-tenant quota 429 is JSON with the tenant and
// a retry hint, the admission-gate 429 is the plain-text overload shed.
func TestQuota429VsGate429(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Preload(demoDocs()...)
	if err := s.SelectAll(); err != nil {
		t.Fatal(err)
	}
	s.EnableQuotas(quota.Limit{RPS: 0.0001, Burst: 1})

	// Hold a rebuild mid-flight to saturate a MaxInflight=1 gate.
	entered := make(chan struct{})
	release := make(chan struct{})
	s.rebuildHook = func() {
		close(entered)
		<-release
	}
	ts := httptest.NewServer(s.HandlerWith(httpx.Config{
		MaxInflight: 1,
		RetryAfter:  2 * time.Second,
		Quota:       s.QuotaMiddleware(),
	}))
	defer ts.Close()

	// Burst=1: the first request from this tenant consumes the bucket...
	del := make(chan struct{})
	go func() {
		defer close(del)
		req, _ := http.NewRequest(http.MethodDelete,
			ts.URL+"/api/documents?url=http://online.wsj.com/doc4.html", nil)
		req.Header.Set("X-API-Key", "writer")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-entered

	// ...so with the gate full, a second tenant-"writer" request is shed
	// by the gate (plain text), while tenant "reader" passes the gate?
	// No: the gate runs BEFORE quota, so while saturated EVERY request
	// sheds identically. That is the contrast under test.
	rGate, bGate := doGet(t, ts.URL+"/api/sources", map[string]string{"X-API-Key": "reader"})
	if rGate.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("gate shed = %d, want 429", rGate.StatusCode)
	}
	if ct := rGate.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("gate 429 Content-Type = %q, want text/plain", ct)
	}
	if !strings.Contains(string(bGate), "overloaded") {
		t.Fatalf("gate 429 body = %q", bGate)
	}
	if rGate.Header.Get("Retry-After") != "2" {
		t.Fatalf("gate Retry-After = %q, want 2", rGate.Header.Get("Retry-After"))
	}

	close(release)
	<-del

	// Gate free again: tenant "reader" spends its one banked token...
	if r, b := doGet(t, ts.URL+"/api/sources", map[string]string{"X-API-Key": "reader"}); r.StatusCode != http.StatusOK {
		t.Fatalf("first reader request = %d: %s", r.StatusCode, b)
	}
	// ...and the next is throttled by quota: JSON, tenant named, ceil'd
	// Retry-After.
	rQ, bQ := doGet(t, ts.URL+"/api/sources", map[string]string{"X-API-Key": "reader"})
	if rQ.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota throttle = %d, want 429", rQ.StatusCode)
	}
	if ct := rQ.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("quota 429 Content-Type = %q, want application/json", ct)
	}
	var tb struct {
		Error      string  `json:"error"`
		Tenant     string  `json:"tenant"`
		RetryAfter float64 `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(bQ, &tb); err != nil {
		t.Fatalf("quota 429 body not JSON: %v\n%s", err, bQ)
	}
	if tb.Error != "tenant quota exceeded" || tb.Tenant != "reader" || tb.RetryAfter <= 0 {
		t.Fatalf("quota 429 body = %+v", tb)
	}
	if rQ.Header.Get("Retry-After") == "" {
		t.Fatal("quota 429 missing Retry-After")
	}

	// Tenant isolation: a different key is not throttled.
	if r, _ := doGet(t, ts.URL+"/api/sources", map[string]string{"X-API-Key": "other"}); r.StatusCode != http.StatusOK {
		t.Fatalf("unthrottled tenant = %d, want 200", r.StatusCode)
	}
	// Admin endpoints are exempt: a throttled tenant can still raise its
	// own limit.
	if r, _ := doGet(t, ts.URL+"/api/admin/quotas", map[string]string{"X-API-Key": "reader"}); r.StatusCode != http.StatusOK {
		t.Fatalf("admin endpoint metered: %d", r.StatusCode)
	}
}

// TestQuotaAdminFlow drives GET/PUT /api/admin/quotas end to end: reads
// the config, applies a default + override update, sees enforcement
// change live, and clears the override.
func TestQuotaAdminFlow(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Preload(demoDocs()...)
	if err := s.SelectAll(); err != nil {
		t.Fatal(err)
	}
	s.EnableQuotas(quota.Limit{RPS: 100, Burst: 5})
	ts := httptest.NewServer(s.HandlerWith(httpx.Config{Quota: s.QuotaMiddleware()}))
	defer ts.Close()

	var snap quota.Snapshot
	getJSON(t, ts.URL+"/api/admin/quotas", &snap)
	if snap.Default.RPS != 100 || snap.Default.Burst != 5 || len(snap.Overrides) != 0 {
		t.Fatalf("initial snapshot = %+v", snap)
	}

	put := func(body string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/api/admin/quotas", strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// Shrink the default to one banked token, but give "gold" plenty.
	if resp := put(`{"default":{"rps":0.0001,"burst":1},"tenants":[{"tenant":"gold","rps":1000,"burst":100}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT = %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/api/admin/quotas", &snap)
	if snap.Default.Burst != 1 || len(snap.Overrides) != 1 || snap.Overrides[0].Tenant != "gold" {
		t.Fatalf("post-update snapshot = %+v", snap)
	}

	// The shrink applies live: anonymous gets one request then 429.
	if r, _ := doGet(t, ts.URL+"/api/sources", nil); r.StatusCode != http.StatusOK {
		t.Fatalf("first anonymous request = %d", r.StatusCode)
	}
	if r, _ := doGet(t, ts.URL+"/api/sources", nil); r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second anonymous request = %d, want 429", r.StatusCode)
	}
	// gold rides its override.
	for i := 0; i < 5; i++ {
		if r, _ := doGet(t, ts.URL+"/api/sources", map[string]string{"X-API-Key": "gold"}); r.StatusCode != http.StatusOK {
			t.Fatalf("gold request %d = %d", i, r.StatusCode)
		}
	}

	// Clearing the override drops gold to the (exhausted) default.
	if resp := put(`{"tenants":[{"tenant":"gold","clear":true}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT clear = %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/api/admin/quotas", &snap)
	if len(snap.Overrides) != 0 {
		t.Fatalf("override not cleared: %+v", snap)
	}
	if r, _ := doGet(t, ts.URL+"/api/sources", map[string]string{"X-API-Key": "gold"}); r.StatusCode != http.StatusOK {
		// gold starts a fresh default bucket with one banked token...
		t.Fatalf("gold first post-clear request = %d", r.StatusCode)
	}
	if r, _ := doGet(t, ts.URL+"/api/sources", map[string]string{"X-API-Key": "gold"}); r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("gold second post-clear request = %d, want 429", r.StatusCode)
	}

	// Malformed and invalid updates are rejected.
	if resp := put(`{"default":`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed PUT = %d, want 400", resp.StatusCode)
	}
	if resp := put(`{"tenants":[{"tenant":"","rps":1}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty-tenant PUT = %d, want 400", resp.StatusCode)
	}

	// Quotas disabled: the endpoints 404.
	s2, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if r, _ := doGet(t, ts2.URL+"/api/admin/quotas", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("quotas-disabled GET = %d, want 404", r.StatusCode)
	}
}
