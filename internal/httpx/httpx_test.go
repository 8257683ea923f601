package httpx

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok"))
	})
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

func TestRecoverConvertsPanicTo500(t *testing.T) {
	before := metPanics.Value()
	ts := httptest.NewServer(Recover()(faults.Panicking("boom")))
	defer ts.Close()

	resp, body := get(t, ts.URL)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(body, "internal error") {
		t.Fatalf("500 body = %q", body)
	}
	if got := metPanics.Value(); got != before+1 {
		t.Fatalf("panic counter = %d, want %d", got, before+1)
	}
}

func TestRecoverServerKeepsServingAfterPanic(t *testing.T) {
	// One route panics; the rest of the mux must stay alive across
	// repeated hits — the process-kill behaviour is what we removed.
	mux := http.NewServeMux()
	mux.Handle("/boom", faults.Panicking("kaboom"))
	mux.Handle("/", okHandler())
	ts := httptest.NewServer(Recover()(mux))
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if resp, _ := get(t, ts.URL+"/boom"); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("round %d: /boom = %d", i, resp.StatusCode)
		}
		if resp, body := get(t, ts.URL+"/"); resp.StatusCode != http.StatusOK || body != "ok" {
			t.Fatalf("round %d: / = %d %q after panic", i, resp.StatusCode, body)
		}
	}
}

func TestRecoverPassesThroughAbortHandler(t *testing.T) {
	// http.ErrAbortHandler is net/http's sanctioned connection-abort
	// signal; Recover must re-raise it, not convert it to a 500.
	before := metPanics.Value()
	ts := httptest.NewServer(Recover()(faults.Abort("partial")))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err == nil {
		_, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil {
			t.Fatal("aborted response completed cleanly")
		}
	}
	if got := metPanics.Value(); got != before {
		t.Fatalf("abort counted as panic: %d != %d", got, before)
	}
}

func TestDeadlineAttachesContextDeadline(t *testing.T) {
	var (
		haveDeadline bool
		remaining    time.Duration
	)
	h := Deadline(250 * time.Millisecond)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var dl time.Time
		dl, haveDeadline = r.Context().Deadline()
		remaining = time.Until(dl)
		w.WriteHeader(http.StatusNoContent)
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if !haveDeadline {
		t.Fatal("request context has no deadline")
	}
	if remaining <= 0 || remaining > 250*time.Millisecond {
		t.Fatalf("deadline remaining = %v", remaining)
	}

	// A cancelled deadline is observable by the handler.
	slowSawCancel := make(chan bool, 1)
	h = Deadline(10 * time.Millisecond)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			slowSawCancel <- true
		case <-time.After(5 * time.Second):
			slowSawCancel <- false
		}
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if !<-slowSawCancel {
		t.Fatal("handler never observed the deadline expiring")
	}
}

func TestDeadlineZeroDisabled(t *testing.T) {
	h := Deadline(0)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := r.Context().Deadline(); ok {
			t.Error("Deadline(0) attached a deadline")
		}
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
}

func TestGateSheds429WithRetryAfter(t *testing.T) {
	beforeShed := metShed.Value()
	blocker := faults.NewBlocker(2)
	gate := NewGate(2, 3*time.Second)
	ts := httptest.NewServer(gate.Middleware()(blocker.Handler(nil)))
	defer ts.Close()
	defer blocker.Release()

	// Fill the gate with two parked requests.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-blocker.Entered():
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight request never entered")
		}
	}

	// The third request is shed immediately with 429 + Retry-After.
	resp, body := get(t, ts.URL)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap request = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	if !strings.Contains(body, "overloaded") {
		t.Fatalf("429 body = %q", body)
	}
	if got := metShed.Value(); got != beforeShed+1 {
		t.Fatalf("shed counter = %d, want %d", got, beforeShed+1)
	}

	// Release the parked requests; capacity frees and service resumes.
	blocker.Release()
	wg.Wait()
	if resp, _ := get(t, ts.URL); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-overload request = %d, want 200", resp.StatusCode)
	}
	if gate.Inflight() != 0 {
		t.Fatalf("inflight = %d after all requests done", gate.Inflight())
	}
}

func TestGateUnlimitedWhenZero(t *testing.T) {
	h := NewGate(0, time.Second).Middleware()(okHandler())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("unlimited gate = %d", rec.Code)
	}
}

func TestBodyLimitCapsRequests(t *testing.T) {
	h := BodyLimit(16)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		w.Write([]byte("ok"))
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Post(ts.URL, "text/plain", strings.NewReader("small"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL, "text/plain", strings.NewReader(strings.Repeat("x", 64)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", resp.StatusCode)
	}
}

func TestInstrumentCountsStatusClasses(t *testing.T) {
	before2xx := metStatus[1].Value()
	before4xx := metStatus[3].Value()
	before5xx := metStatus[4].Value()
	beforeReqs := metRequests.Value()

	mux := http.NewServeMux()
	mux.Handle("/ok", okHandler())
	mux.HandleFunc("/missing", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "gone", http.StatusNotFound)
	})
	mux.HandleFunc("/fail", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "broken", http.StatusInternalServerError)
	})
	mux.HandleFunc("/silent", func(http.ResponseWriter, *http.Request) {})
	ts := httptest.NewServer(Instrument()(mux))
	defer ts.Close()

	for _, p := range []string{"/ok", "/missing", "/fail", "/silent"} {
		resp, _ := get(t, ts.URL+p)
		resp.Body.Close()
	}
	if got := metRequests.Value() - beforeReqs; got != 4 {
		t.Fatalf("request counter delta = %d, want 4", got)
	}
	// /ok and /silent (nothing written -> net/http 200) are 2xx.
	if got := metStatus[1].Value() - before2xx; got != 2 {
		t.Fatalf("2xx delta = %d, want 2", got)
	}
	if got := metStatus[3].Value() - before4xx; got != 1 {
		t.Fatalf("4xx delta = %d, want 1", got)
	}
	if got := metStatus[4].Value() - before5xx; got != 1 {
		t.Fatalf("5xx delta = %d, want 1", got)
	}
}

func TestInstrumentCountsRecoveredPanicsAs5xx(t *testing.T) {
	before5xx := metStatus[4].Value()
	// Instrument is outermost, Recover inside it: recovery writes the
	// 500 to the shared statusWriter and returns normally, so the
	// instrumented status reflects it.
	ts := httptest.NewServer(Chain(Instrument(), Recover())(faults.Panicking("x")))
	defer ts.Close()
	resp, _ := get(t, ts.URL)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := metStatus[4].Value() - before5xx; got != 1 {
		t.Fatalf("5xx delta = %d, want 1", got)
	}
}

func TestChainOrder(t *testing.T) {
	var order []string
	mw := func(name string) Middleware {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				order = append(order, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	Chain(mw("a"), mw("b"), mw("c"))(okHandler()).
		ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("middleware order = %v", order)
	}
}

func TestWrapFullStack(t *testing.T) {
	h := Wrap(okHandler(), Config{
		MaxInflight:    4,
		RetryAfter:     time.Second,
		RequestTimeout: time.Second,
		MaxBodyBytes:   1 << 10,
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	if resp, body := get(t, ts.URL); resp.StatusCode != http.StatusOK || body != "ok" {
		t.Fatalf("wrapped handler = %d %q", resp.StatusCode, body)
	}
}

func TestServerConfigDefaults(t *testing.T) {
	srv := NewServer(":0", okHandler(), ServerConfig{})
	if srv.ReadTimeout != DefaultReadTimeout || srv.WriteTimeout != DefaultWriteTimeout ||
		srv.IdleTimeout != DefaultIdleTimeout || srv.ReadHeaderTimeout != DefaultReadHeaderTimeout ||
		srv.MaxHeaderBytes != DefaultMaxHeaderBytes {
		t.Fatalf("defaults not applied: %+v", srv)
	}
	// Negative values disable a timeout explicitly.
	srv = NewServer(":0", okHandler(), ServerConfig{ReadTimeout: -1})
	if srv.ReadTimeout != 0 {
		t.Fatalf("negative ReadTimeout = %v, want disabled", srv.ReadTimeout)
	}
}

func TestServeStopsOnListenerError(t *testing.T) {
	ln := newLocalListener(t)
	srv := NewServer("", okHandler(), ServerConfig{})
	ln.Close() // make Serve fail immediately
	err := Serve(context.Background(), srv, ln, time.Second)
	if err == nil {
		t.Fatal("Serve on closed listener returned nil")
	}
}

func TestGateRetryAfterRoundsUpFractionalSeconds(t *testing.T) {
	blocker := faults.NewBlocker(1)
	gate := NewGate(1, 1500*time.Millisecond)
	ts := httptest.NewServer(gate.Middleware()(blocker.Handler(nil)))
	defer ts.Close()
	defer blocker.Release()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	select {
	case <-blocker.Entered():
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never entered")
	}

	resp, _ := get(t, ts.URL)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap request = %d, want 429", resp.StatusCode)
	}
	// A 1.5s hint must round UP: "Retry-After: 1" tells clients to come
	// back half a second before the gate wants them.
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\" (ceil of 1.5s)", ra)
	}
	blocker.Release()
	<-done
}

func TestRetryAfterSecondsRoundsUpAndClamps(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{-5 * time.Second, 1},
		{time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{59*time.Second + time.Nanosecond, 60},
	}
	for _, c := range cases {
		if got := RetryAfterSeconds(c.d); got != c.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// failingWriter accepts headers but fails every body write, as a
// connection the client cut does.
type failingWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *failingWriter) Header() http.Header  { return w.header }
func (w *failingWriter) WriteHeader(code int) { w.code = code }
func (w *failingWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return 0, io.ErrClosedPipe
}

func TestErrorCountsWriteFailure(t *testing.T) {
	const msg = "bad <query> & more"
	var want strings.Builder // what Error streamed before it went through WriteBody
	json.NewEncoder(&want).Encode(map[string]string{"error": msg})

	before := metWriteErrors.Value()
	w := &failingWriter{header: http.Header{}}
	Error(w, http.StatusBadRequest, msg)
	if got := metWriteErrors.Value(); got != before+1 {
		t.Fatalf("write errors = %d, want %d", got, before+1)
	}
	if w.code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", w.code)
	}
	if string(w.body) != want.String() {
		t.Fatalf("body = %q, want %q", w.body, want.String())
	}
	if cl := w.header.Get("Content-Length"); cl != strconv.Itoa(len(w.body)) {
		t.Fatalf("Content-Length = %q, want %d", cl, len(w.body))
	}
}
