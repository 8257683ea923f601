package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/feed"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/quota"
)

// failingWriter accepts headers but fails every body write, as a
// connection the client cut does.
type failingWriter struct{ header http.Header }

func (w *failingWriter) Header() http.Header       { return w.header }
func (w *failingWriter) WriteHeader(int)           {}
func (w *failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestBareWritersGoThroughWriteBody covers the three responses that used
// to stream a compact body straight onto the connection: /healthz, the
// stale-epoch 409 of PUT /api/cluster/feeds and the quota's 429. Each
// must carry Content-Length and the indented envelope of every other
// response, the 429 its Retry-After too, and a failed write must count in
// storypivot_http_write_errors_total.
func TestBareWritersGoThroughWriteBody(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, err := feed.NewManager(s.Pipeline(), feed.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachFeeds(m)
	s.feedEpoch.Store(5)
	s.EnableQuotas(quota.Limit{RPS: 0.0001, Burst: 1})
	h := s.HandlerWith(httpx.Config{Quota: s.QuotaMiddleware()})

	// Every tenant holds one token: each request but the throttled ones
	// comes from a tenant of its own.
	tenants := 0
	request := func(method, path, body, tenant string) *http.Request {
		r := httptest.NewRequest(method, path, strings.NewReader(body))
		if tenant == "" {
			tenants++
			tenant = fmt.Sprintf("tenant-%d", tenants)
		}
		r.Header.Set("X-API-Key", tenant)
		return r
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, request("GET", "/api/sources", "", "throttled"))
	if rec.Code != http.StatusOK {
		t.Fatalf("the throttled tenant's first request = %d, want 200", rec.Code)
	}

	indented := func(v any) string {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	type throttled struct {
		Error      string  `json:"error"`
		Tenant     string  `json:"tenant"`
		RetryAfter float64 `json:"retry_after_seconds"`
	}
	cases := []struct {
		name string
		req  func() *http.Request
		code int
		want func(http.Header) string
	}{
		{"healthz", func() *http.Request { return request("GET", "/healthz", "", "") },
			http.StatusOK, func(http.Header) string { return indented(HealthView{Status: "ok"}) }},
		{"stale epoch", func() *http.Request { return request("PUT", "/api/cluster/feeds", `{"epoch":4}`, "") },
			http.StatusConflict, func(http.Header) string {
				return indented(map[string]any{"error": "stale epoch", "epoch": 5})
			}},
		{"quota", func() *http.Request { return request("GET", "/api/sources", "", "throttled") },
			http.StatusTooManyRequests, func(hd http.Header) string {
				secs, err := strconv.Atoi(hd.Get("Retry-After"))
				if err != nil || secs < 1 {
					t.Fatalf("429 Retry-After = %q, want whole seconds", hd.Get("Retry-After"))
				}
				return indented(throttled{"tenant quota exceeded", "throttled", float64(secs)})
			}},
	}
	writeErrors := obs.GetCounter("storypivot_http_write_errors_total", "")
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, c.req())
		if rec.Code != c.code {
			t.Fatalf("%s: status %d, want %d: %s", c.name, rec.Code, c.code, rec.Body)
		}
		if want := c.want(rec.Header()); rec.Body.String() != want {
			t.Fatalf("%s: body %q, want %q", c.name, rec.Body, want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%s: Content-Length %q, body is %d bytes", c.name, cl, rec.Body.Len())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", c.name, ct)
		}

		before := writeErrors.Value()
		h.ServeHTTP(&failingWriter{header: http.Header{}}, c.req())
		if got := writeErrors.Value(); got != before+1 {
			t.Fatalf("%s: a failed write moved the write-error count by %d, want 1", c.name, got-before)
		}
	}
}
