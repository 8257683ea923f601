package server

// Fault-injection tests for the serving-layer hardening: read handlers
// must not queue behind a slow deselect-rebuild, the paged endpoints
// must enforce their parameter contract with exact statuses, and
// writeJSON must commit a status only for complete bodies.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/httpx"
	"repro/internal/obs"
)

// TestReadsNotSerializedBehindRebuild parks a rebuild (via the
// fault-injection hook, which runs with the write lock held after
// ingest) and proves that query traffic keeps being answered from the
// previous snapshot the whole time — the acceptance criterion for the
// read/write lock split.
func TestReadsNotSerializedBehindRebuild(t *testing.T) {
	s, ts := newTestServer(t)

	blocker := faults.NewBlocker(1)
	s.rebuildHook = func() { blocker.Wait(nil) }
	defer blocker.Release()

	rebuildDone := make(chan error, 1)
	go func() {
		// Deselect one document: triggers a full rebuild that parks in
		// the hook while holding writeMu.
		_, err := s.RemoveDocument("http://online.wsj.com/doc4.html")
		rebuildDone <- err
	}()
	select {
	case <-blocker.Entered():
	case <-time.After(5 * time.Second):
		t.Fatal("rebuild never reached the hook")
	}

	// With the rebuild parked, every read endpoint must answer promptly
	// from the old snapshot. The client timeout is the serialization
	// detector: pre-split, these calls blocked until the rebuild lock
	// was released.
	client := &http.Client{Timeout: 2 * time.Second}
	reads := []string{
		"/api/integrated",
		"/api/search?q=plane+crash",
		"/api/timeline?entity=UKR",
		"/api/documents",
		"/api/sources",
		"/api/stats",
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(reads))
	for _, path := range reads {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			resp, err := client.Get(ts.URL + path)
			if err != nil {
				errs <- fmt.Errorf("GET %s during rebuild: %w", path, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("GET %s during rebuild = %d", path, resp.StatusCode)
			}
		}(path)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	select {
	case err := <-rebuildDone:
		t.Fatalf("rebuild finished while parked (err=%v)", err)
	default:
	}

	// Release the rebuild; the new snapshot (minus the document) lands.
	blocker.Release()
	if err := <-rebuildDone; err != nil {
		t.Fatalf("rebuild failed: %v", err)
	}
	var docs []DocumentView
	getJSON(t, ts.URL+"/api/documents", &docs)
	for _, d := range docs {
		if d.URL == "http://online.wsj.com/doc4.html" && d.Selected {
			t.Fatal("removed document still selected after rebuild")
		}
	}
}

// TestConcurrentReadsDuringSelectChurn hammers reads while selections
// rebuild in a loop; combined with -race in CI this pins the snapshot
// discipline (readers on the old pipeline while the new one is built).
func TestConcurrentReadsDuringSelectChurn(t *testing.T) {
	s, ts := newTestServer(t)
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		all := []string{
			"http://nytimes.com/doc1.html", "http://nytimes.com/doc2.html",
			"http://online.wsj.com/doc3.html", "http://online.wsj.com/doc4.html",
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				s.Select(all[:2])
			} else {
				s.Select(all)
			}
		}
	}()

	client := &http.Client{Timeout: 5 * time.Second}
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 25; i++ {
				resp, err := client.Get(ts.URL + "/api/integrated")
				if err != nil {
					t.Errorf("read during churn: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("read during churn = %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	churn.Wait()
}

// TestPageParamsHTTPMatrix pins the paged endpoints' parameter contract
// at the HTTP layer: exact status codes and envelope totals for the
// boundary cases.
func TestPageParamsHTTPMatrix(t *testing.T) {
	_, ts := newTestServer(t)

	// Reference totals.
	var full SearchPageView
	getJSON(t, ts.URL+"/api/search?q=plane+crash", &full)
	if full.Total == 0 {
		t.Fatal("reference search empty")
	}

	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Malformed values: exact 400s on both paged endpoints.
	for _, path := range []string{
		"/api/search?q=x&limit=0",
		"/api/search?q=x&limit=-3",
		"/api/search?q=x&limit=abc",
		"/api/search?q=x&limit=1.5",
		"/api/search?q=x&offset=-1",
		"/api/search?q=x&offset=abc",
		"/api/timeline?entity=UKR&limit=0",
		"/api/timeline?entity=UKR&offset=-1",
		"/api/timeline?entity=UKR&offset=1e3",
	} {
		if got := status(path); got != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, got)
		}
	}

	// Offset past the total: 200 with an empty page and the true total.
	var beyond SearchPageView
	getJSON(t, fmt.Sprintf("%s/api/search?q=plane+crash&offset=%d", ts.URL, full.Total+5), &beyond)
	if len(beyond.Results) != 0 || beyond.Total != full.Total || beyond.Offset != full.Total+5 {
		t.Fatalf("beyond-end page = total %d offset %d results %d",
			beyond.Total, beyond.Offset, len(beyond.Results))
	}

	// The 500 cap boundary: 500 passes through, 501 clamps to 500.
	var at SearchPageView
	getJSON(t, ts.URL+"/api/search?q=plane+crash&limit=500", &at)
	if at.Limit != 500 {
		t.Fatalf("limit=500 reported as %d", at.Limit)
	}
	var over SearchPageView
	getJSON(t, ts.URL+"/api/search?q=plane+crash&limit=501", &over)
	if over.Limit != 500 {
		t.Fatalf("limit=501 not clamped: %d", over.Limit)
	}
	// Totals are invariant under paging.
	if at.Total != full.Total || over.Total != full.Total {
		t.Fatalf("totals drifted: %d/%d vs %d", at.Total, over.Total, full.Total)
	}
}

// failAfterWriter fails all writes, simulating a client that vanished
// between the handler starting and the response body going out.
type failAfterWriter struct {
	httptest.ResponseRecorder
}

func (w *failAfterWriter) Write([]byte) (int, error) {
	return 0, errors.New("connection reset by peer")
}

func TestWriteJSONRecordsWriteErrors(t *testing.T) {
	c := obs.GetCounter("storypivot_http_write_errors_total", "")
	before := c.Value()
	w := &failAfterWriter{ResponseRecorder: *httptest.NewRecorder()}
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"hello": "world"})
	if got := c.Value(); got != before+1 {
		t.Fatalf("write-error counter = %d, want %d", got, before+1)
	}
	// The status was committed before the body failed — the client got
	// headers, so instrumentation sees the code that was sent.
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
}

func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	c := obs.GetCounter("storypivot_http_encode_errors_total", "")
	before := c.Value()
	rec := httptest.NewRecorder()
	// A channel is not JSON-encodable: the failure must surface as a
	// clean 500 error envelope, not a half-written 200.
	httpx.WriteJSON(rec, http.StatusOK, map[string]any{"bad": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("encode failure = %d, want 500", rec.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
		t.Fatalf("500 body not a clean error envelope: %q", rec.Body.String())
	}
	if got := c.Value(); got != before+1 {
		t.Fatalf("encode-error counter = %d, want %d", got, before+1)
	}
}

func TestWriteJSONSetsContentLength(t *testing.T) {
	rec := httptest.NewRecorder()
	httpx.WriteJSON(rec, http.StatusOK, map[string]int{"n": 1})
	cl := rec.Header().Get("Content-Length")
	if cl == "" {
		t.Fatal("no Content-Length on buffered response")
	}
	if fmt.Sprint(rec.Body.Len()) != cl {
		t.Fatalf("Content-Length %s != body %d", cl, rec.Body.Len())
	}
}

// TestHandlerPanicContained drives a panic through the server's own
// Handler stack (Instrument → Recover → mux) via a poisoned route and
// confirms the demo API keeps serving.
func TestHandlerPanicContained(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	s.Preload(demoDocs()...)
	if err := s.SelectAll(); err != nil {
		t.Fatal(err)
	}
	// No shipped handler panics by design, so mount a panicking route
	// beside the API under the same recovery stack, mirroring how a
	// future buggy handler would behave.
	h := http.NewServeMux()
	h.Handle("/boom", faults.Panicking("handler bug"))
	h.Handle("/", s.rawMux())
	ts := httptest.NewServer(httpx.Chain(httpx.Instrument(), httpx.Recover())(h))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking route = %d, want 500", resp.StatusCode)
	}
	var list []IntegratedView
	getJSON(t, ts.URL+"/api/integrated", &list)
	if len(list) == 0 {
		t.Fatal("API dead after contained panic")
	}
}

// TestServerClose verifies Close is idempotent and closes the pipeline
// while leaving already-held snapshots
// queryable — the shutdown-sequence contract.
func TestServerClose(t *testing.T) {
	s, ts := newTestServer(t)
	p := s.Pipeline()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The engine and index stay queryable after Close (the drain window
	// may still have readers on the snapshot).
	if got := p.Engine().Ingested(); got == 0 {
		t.Fatal("snapshot unreadable after Close")
	}
	resp, err := http.Get(ts.URL + "/api/integrated")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read after Close = %d", resp.StatusCode)
	}
}

// TestBodyLimitOn413 exercises HandlerWith's body cap end to end: an
// oversized document upload is rejected with 413, not decoded.
func TestBodyLimitOn413(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.HandlerWith(httpx.Config{MaxBodyBytes: 256}))
	defer ts.Close()

	big := `{"source":"x","url":"http://x/1","title":"t","body":"` +
		strings.Repeat("a", 4096) + `"}`
	resp, err := http.Post(ts.URL+"/api/documents", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload = %d, want 413", resp.StatusCode)
	}
}
