package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	storypivot "repro"
	"repro/internal/retire"
)

func newWindowServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := New(
		storypivot.WithRetireWindow(21*24*time.Hour),
		storypivot.WithStorage(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	s.Preload(demoDocs()...)
	if err := s.SelectAll(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestWindowEndpoint(t *testing.T) {
	ts := newWindowServer(t)

	var v retire.View
	getJSON(t, ts.URL+"/api/window", &v)
	if !v.Enabled || v.Window != "504h0m0s" {
		t.Fatalf("GET /api/window = %+v, want enabled 504h window", v)
	}

	// Healthz mirrors the window state.
	var hv HealthView
	getJSON(t, ts.URL+"/healthz", &hv)
	if hv.Window == nil || hv.Window.Window != v.Window {
		t.Fatalf("healthz window = %+v, want %q", hv.Window, v.Window)
	}

	// Live rebase through the admin endpoint.
	body, _ := json.Marshal(map[string]any{"window": "240h", "grace": "12h", "min_resident": 7})
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/api/admin/window", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /api/admin/window = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Window != "240h0m0s" || v.Grace != "12h0m0s" || v.MinResident != 7 {
		t.Fatalf("rebased view = %+v", v)
	}
	// The rebase is durable in the live manager, not just echoed.
	getJSON(t, ts.URL+"/api/window", &v)
	if v.Window != "240h0m0s" || v.MinResident != 7 {
		t.Fatalf("GET after rebase = %+v", v)
	}

	// Invalid inputs answer 400 without changing state.
	for _, bad := range []string{
		`{"window": "not-a-duration"}`,
		`{"grace": "-5h"}`,
		`{"min_resident": -1}`,
		`{definitely not json`,
	} {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/api/admin/window", bytes.NewReader([]byte(bad)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("PUT %s = %d, want 400", bad, resp.StatusCode)
		}
	}
	getJSON(t, ts.URL+"/api/window", &v)
	if v.Window != "240h0m0s" || v.MinResident != 7 {
		t.Fatalf("state changed by rejected update: %+v", v)
	}
}

func TestWindowEndpointDisabled(t *testing.T) {
	_, ts := newTestServer(t) // no retirement options
	resp, err := http.Get(ts.URL + "/api/window")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /api/window without retirement = %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/api/admin/window", bytes.NewReader([]byte(`{"window":"240h"}`)))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("PUT /api/admin/window without retirement = %d, want 404", resp.StatusCode)
	}
	// Healthz omits the window block entirely.
	var hv HealthView
	getJSON(t, ts.URL+"/healthz", &hv)
	if hv.Window != nil {
		t.Fatalf("healthz window = %+v, want omitted", hv.Window)
	}
}
