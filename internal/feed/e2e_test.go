package feed

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/storage"
	"repro/internal/stream"
)

// recSink is a recording Sink. With dedup set it mirrors the engine's
// contract: a second ingest of the same ID is rejected with
// stream.ErrDuplicate, which the feed must treat as an acknowledgement.
type recSink struct {
	delay time.Duration
	dedup bool

	mu       sync.Mutex
	counts   map[event.SnippetID]int
	rejected int
}

func newRecSink(delay time.Duration) *recSink {
	return &recSink{delay: delay, counts: make(map[event.SnippetID]int)}
}

func (s *recSink) Ingest(sn *event.Snippet) error {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dedup && s.counts[sn.ID] > 0 {
		s.rejected++
		return fmt.Errorf("replayed snippet %d: %w", sn.ID, stream.ErrDuplicate)
	}
	s.counts[sn.ID]++
	return nil
}

func (s *recSink) accepted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.counts {
		n += c
	}
	return n
}

func (s *recSink) count(id event.SnippetID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[id]
}

func (s *recSink) dupRejections() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejected
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// fastCfg is a test config with millisecond-scale timings.
func fastCfg() Config {
	return Config{
		BackoffBase:      time.Millisecond,
		BackoffCap:       4 * time.Millisecond,
		BreakerThreshold: 100, // effectively disabled unless a test lowers it
		BreakerCooldown:  50 * time.Millisecond,
		FetchTimeout:     2 * time.Second,
		BatchSize:        8,
		PollInterval:     3 * time.Millisecond,
	}
}

// Scenario 1: a source that flaps — one mid-body connection abort, two
// 503s — recovers via backoff without operator action and without the
// breaker tripping, and every record still arrives exactly once.
func TestFeedFlapAndRecover(t *testing.T) {
	src := &NDJSONSource{}
	src.Append(makeSnips("srcA", 30)...)
	inj := &faults.Injector{}
	ts := httptest.NewServer(inj.Wrap(src))
	defer ts.Close()

	inj.AbortOnce()   // fetch 1: dies between header and body
	inj.FailN(2, 503) // fetches 2-3: plain server errors

	sink := newRecSink(0)
	m, err := NewManager(sink, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(NewHTTPFetcher("srcA", ts.URL, nil)); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	waitFor(t, 10*time.Second, func() bool { return sink.accepted() == 30 && m.CaughtUp() },
		"all 30 snippets ingested after flap")
	st := m.Status()[0]
	if st.FetchErrors != 3 {
		t.Fatalf("fetch errors = %d, want 3 (abort + two 503s)", st.FetchErrors)
	}
	if st.State != StateHealthy || st.Breaker != "closed" {
		t.Fatalf("after recovery: state %s breaker %s", st.State, st.Breaker)
	}
	for i := 1; i <= 30; i++ {
		if sink.count(event.SnippetID(i)) != 1 {
			t.Fatalf("snippet %d ingested %d times", i, sink.count(event.SnippetID(i)))
		}
	}
}

// Scenario 2: enough consecutive failures trip the breaker; the source
// is quarantined through the cooldown, the first half-open probe fails
// and re-opens it, the second probe succeeds and closes it, and ingest
// then completes. FetchErrors == 4 proves the fourth failure was the
// half-open probe: only one request is admitted per cooldown.
func TestFeedBreakerLifecycle(t *testing.T) {
	src := &NDJSONSource{}
	src.Append(makeSnips("srcB", 12)...)
	inj := &faults.Injector{}
	ts := httptest.NewServer(inj.Wrap(src))
	defer ts.Close()

	inj.FailN(4, http.StatusBadGateway) // 3 to trip + 1 failed probe

	cfg := fastCfg()
	cfg.BreakerThreshold = 3
	cfg.BreakerCooldown = 40 * time.Millisecond
	sink := newRecSink(0)
	m, err := NewManager(sink, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(NewHTTPFetcher("srcB", ts.URL, nil)); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var sawBreaker string
	waitFor(t, 10*time.Second, func() bool {
		st := m.Status()[0]
		if st.State == StateQuarantined {
			sawBreaker = st.Breaker
			return true
		}
		return false
	}, "source quarantined after breaker tripped")
	if sawBreaker != "open" && sawBreaker != "half-open" {
		t.Fatalf("quarantined with breaker %q", sawBreaker)
	}

	waitFor(t, 10*time.Second, func() bool { return sink.accepted() == 12 && m.CaughtUp() },
		"ingest completed after breaker closed")
	st := m.Status()[0]
	if st.State != StateHealthy || st.Breaker != "closed" {
		t.Fatalf("after recovery: state %s breaker %s", st.State, st.Breaker)
	}
	if st.FetchErrors != 4 {
		t.Fatalf("fetch errors = %d, want 4 (trip + one failed probe)", st.FetchErrors)
	}
}

// Scenario 3: malformed records land in the DLQ with source and cursor
// context, the cursor moves past them (no poison loop), the rest of
// the batch ingests normally, and the DLQ survives reopening.
func TestFeedDLQCaptureNoPoisoning(t *testing.T) {
	src := &NDJSONSource{}
	src.Append(makeSnips("srcC", 4)...)
	src.AppendRaw([]byte("{this is not json"))
	src.AppendRaw([]byte(`{"id":99,"source":"srcC","ts":"2014-07-17T05:00:00Z"}`)) // valid JSON, fails Validate
	more := makeSnips("srcC", 8)
	src.Append(more[4:]...)
	ts := httptest.NewServer(src)
	defer ts.Close()

	dlqDir := t.TempDir()
	cfg := fastCfg()
	cfg.DLQDir = dlqDir
	sink := newRecSink(0)
	m, err := NewManager(sink, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(NewHTTPFetcher("srcC", ts.URL, nil)); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 10*time.Second, func() bool { return sink.accepted() == 8 && m.CaughtUp() },
		"valid snippets ingested around the poison records")
	st := m.Status()[0]
	if st.Malformed != 2 {
		t.Fatalf("malformed = %d, want 2", st.Malformed)
	}
	if st.Cursor != "10" {
		t.Fatalf("cursor = %q, want %q (past the poison lines)", st.Cursor, "10")
	}
	if st.FetchErrors != 0 {
		t.Fatalf("fetch errors = %d: malformed records must not fail the fetch", st.FetchErrors)
	}
	if got := m.DLQ().Len(); got != 2 {
		t.Fatalf("DLQ holds %d entries, want 2", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// The DLQ is durable: reopening from disk yields both entries with
	// their capture context.
	dlq, err := storage.OpenDLQ(dlqDir)
	if err != nil {
		t.Fatal(err)
	}
	defer dlq.Close()
	entries := dlq.Entries()
	if len(entries) != 2 {
		t.Fatalf("reopened DLQ holds %d entries, want 2", len(entries))
	}
	if string(entries[0].Raw) != "{this is not json" {
		t.Fatalf("first DLQ entry raw = %q", entries[0].Raw)
	}
	for _, e := range entries {
		if e.Source != "srcC" || e.Reason == "" {
			t.Fatalf("DLQ entry missing context: %+v", e)
		}
	}
}

// Scenario 4: kill the manager mid-stream, restart from the cursor
// file, and finish. The restart must resume at the acknowledged cursor
// (never from zero) and redelivered records from the unacknowledged
// tail must be collapsed by sink-level dedup — zero double-acceptance.
func TestFeedCursorResumeNoDuplicates(t *testing.T) {
	const n = 120
	src := &NDJSONSource{}
	src.Append(makeSnips("srcD", n)...)

	// Track the smallest offset requested per phase to prove resume.
	var minOffset atomic.Int64
	minOffset.Store(math.MaxInt64)
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		off, _ := strconv.Atoi(r.URL.Query().Get("offset"))
		for {
			cur := minOffset.Load()
			if int64(off) >= cur || minOffset.CompareAndSwap(cur, int64(off)) {
				break
			}
		}
		src.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(handler)
	defer ts.Close()

	cursorPath := filepath.Join(t.TempDir(), "cursors.json")
	cfg := fastCfg()
	cfg.CursorPath = cursorPath
	sink := newRecSink(300 * time.Microsecond)
	sink.dedup = true

	// Phase 1: ingest part of the stream, then stop. Close drains the
	// queue and persists the acknowledged cursor.
	m1, err := NewManager(sink, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Add(NewHTTPFetcher("srcD", ts.URL, nil)); err != nil {
		t.Fatal(err)
	}
	if err := m1.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return sink.accepted() >= 20 },
		"phase 1 ingested a prefix")
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	k1 := readCursor(t, cursorPath, "srcD")
	if k1 <= 0 || k1 >= n {
		t.Fatalf("phase 1 cursor = %d, want mid-stream (0, %d)", k1, n)
	}

	// Phase 2: a fresh manager against the same cursor file and sink
	// (the sink plays the role of the restored pipeline).
	minOffset.Store(math.MaxInt64)
	m2, err := NewManager(sink, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Add(NewHTTPFetcher("srcD", ts.URL, nil)); err != nil {
		t.Fatal(err)
	}
	if err := m2.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return sink.accepted() == n && m2.CaughtUp() },
		"phase 2 completed the stream")
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	if got := minOffset.Load(); got != int64(k1) {
		t.Fatalf("phase 2 first offset = %d, want resume at acknowledged cursor %d", got, k1)
	}
	for i := 1; i <= n; i++ {
		if c := sink.count(event.SnippetID(i)); c != 1 {
			t.Fatalf("snippet %d accepted %d times, want exactly once", i, c)
		}
	}
	// Redeliveries from the unacknowledged tail must have been rejected
	// by dedup and counted as duplicates, not re-accepted.
	st := m2.Status()[0]
	if int(st.Duplicates) != sink.dupRejections() {
		t.Fatalf("runner duplicates %d != sink rejections %d", st.Duplicates, sink.dupRejections())
	}
	if k2 := readCursor(t, cursorPath, "srcD"); k2 != n {
		t.Fatalf("final cursor = %d, want %d", k2, n)
	}
}

// Scenario 5: graceful drain mid-burst. Whatever cursor K the final
// checkpoint acknowledges, records 1..K are all in the sink — no
// acknowledged loss.
func TestFeedDrainMidBurstNoAcknowledgedLoss(t *testing.T) {
	const n = 300
	cursorPath := filepath.Join(t.TempDir(), "cursors.json")
	cfg := fastCfg()
	cfg.CursorPath = cursorPath
	sink := newRecSink(200 * time.Microsecond)
	m, err := NewManager(sink, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(NewReplay("srcE", makeSnips("srcE", n), 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return sink.accepted() >= 40 },
		"burst in flight")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	k := readCursor(t, cursorPath, "srcE")
	if k <= 0 {
		t.Fatalf("acknowledged cursor = %d, want > 0", k)
	}
	for i := 1; i <= k; i++ {
		if sink.count(event.SnippetID(i)) == 0 {
			t.Fatalf("cursor acknowledges %d records but snippet %d never reached the sink", k, i)
		}
	}
	st := m.Status()[0]
	if int(st.Snippets) != sink.accepted() {
		t.Fatalf("runner counted %d ingested, sink accepted %d", st.Snippets, sink.accepted())
	}
}

// A hung source trips the per-fetch timeout, is retried with backoff,
// and ingest completes once the source wakes up.
func TestFeedFetchTimeoutRecovers(t *testing.T) {
	src := &NDJSONSource{}
	src.Append(makeSnips("srcF", 6)...)
	inj := &faults.Injector{}
	ts := httptest.NewServer(inj.Wrap(src))
	defer ts.Close()

	cfg := fastCfg()
	cfg.FetchTimeout = 25 * time.Millisecond
	inj.SetDelay(500 * time.Millisecond) // every fetch hangs past the timeout

	sink := newRecSink(0)
	m, err := NewManager(sink, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(NewHTTPFetcher("srcF", ts.URL, nil)); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	waitFor(t, 10*time.Second, func() bool { return m.Status()[0].FetchErrors >= 2 },
		"timeouts recorded while the source hangs")
	inj.SetDelay(0)
	waitFor(t, 10*time.Second, func() bool { return sink.accepted() == 6 && m.CaughtUp() },
		"ingest completed after the source woke up")
}

// A panicking fetcher costs one failed attempt, not the process.
func TestFeedFetcherPanicContained(t *testing.T) {
	inner := NewReplay("srcG", makeSnips("srcG", 5), 0)
	var calls atomic.Int64
	f := &Func{Src: "srcG", Fn: func(ctx context.Context, cursor string, limit int) (Batch, error) {
		if calls.Add(1) == 1 {
			panic("fetcher bug")
		}
		return inner.Fetch(ctx, cursor, limit)
	}}
	sink := newRecSink(0)
	m, err := NewManager(sink, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(f); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	waitFor(t, 10*time.Second, func() bool { return sink.accepted() == 5 && m.CaughtUp() },
		"ingest completed despite the fetcher panic")
	st := m.Status()[0]
	if st.FetchErrors < 1 {
		t.Fatalf("fetch errors = %d, want the panic counted as a failure", st.FetchErrors)
	}
}

// orderSink records, per source, the order in which ingests finish and
// the most ingests of that source it saw in flight at once.
type orderSink struct {
	delay time.Duration

	mu          sync.Mutex
	inFlight    map[event.SourceID]int
	maxInFlight map[event.SourceID]int
	order       map[event.SourceID][]event.SnippetID
}

func (s *orderSink) Ingest(sn *event.Snippet) error {
	s.mu.Lock()
	s.inFlight[sn.Source]++
	s.maxInFlight[sn.Source] = max(s.maxInFlight[sn.Source], s.inFlight[sn.Source])
	s.mu.Unlock()
	time.Sleep(s.delay)
	s.mu.Lock()
	s.inFlight[sn.Source]--
	s.order[sn.Source] = append(s.order[sn.Source], sn.ID)
	s.mu.Unlock()
	return nil
}

// Each source reaches the sink one record at a time and in the order its
// fetcher returned them, while several sources ingest side by side: the
// engine identifies stories per source and incrementally, so a source's
// order is an input to the result.
func TestFeedIngestsInFetchOrder(t *testing.T) {
	const n = 120
	sink := &orderSink{
		delay:       50 * time.Microsecond,
		inFlight:    make(map[event.SourceID]int),
		maxInFlight: make(map[event.SourceID]int),
		order:       make(map[event.SourceID][]event.SnippetID),
	}
	m, err := NewManager(sink, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srcs := []event.SourceID{"srcI", "srcJ", "srcK"}
	for _, src := range srcs {
		if err := m.Add(NewReplay(src, makeSnips(string(src), n), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, m.CaughtUp, "every source drained")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, src := range srcs {
		if got := sink.maxInFlight[src]; got != 1 {
			t.Errorf("%s: %d records in flight at once, want 1", src, got)
		}
		got := sink.order[src]
		if len(got) != n {
			t.Fatalf("%s: sink saw %d records, want %d", src, len(got), n)
		}
		for i, id := range got {
			if id != event.SnippetID(i+1) {
				t.Errorf("%s: record %d reached the sink as number %d, out of fetch order", src, id, i+1)
				break
			}
		}
	}
}

// An endpoint that ignores limit and marks every response done still
// yields batches of at most limit records: the fetcher stops reading at
// the limit and does not report done, so the runner fetches the rest
// from where the batch ended and ingests every record exactly once.
func TestHTTPFetcherHonoursLimit(t *testing.T) {
	const n = 30
	sns := makeSnips("srcL", n)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		off, _ := strconv.Atoi(r.URL.Query().Get("offset"))
		w.Header().Set(feedDoneHeader, "true")
		for _, sn := range sns[min(off, n):] {
			w.Write(EncodeNDJSON(sn))
			w.Write([]byte{'\n'})
		}
	}))
	defer ts.Close()

	cfg := fastCfg() // BatchSize 8
	inner := NewHTTPFetcher("srcL", ts.URL, nil)
	var largest atomic.Int64
	f := &Func{Src: "srcL", Fn: func(ctx context.Context, cursor string, limit int) (Batch, error) {
		b, err := inner.Fetch(ctx, cursor, limit)
		if k := int64(len(b.Snippets) + len(b.Malformed)); k > largest.Load() {
			largest.Store(k)
		}
		return b, err
	}}
	sink := newRecSink(0)
	m, err := NewManager(sink, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(f); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return sink.accepted() == n && m.CaughtUp() },
		"every record ingested")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := largest.Load(); got > int64(cfg.BatchSize) {
		t.Fatalf("a fetch returned %d records, limit %d", got, cfg.BatchSize)
	}
	for i := 1; i <= n; i++ {
		if c := sink.count(event.SnippetID(i)); c != 1 {
			t.Fatalf("snippet %d ingested %d times, want exactly once", i, c)
		}
	}
}

// readCursor parses the persisted cursor file and returns src's cursor
// as an integer offset.
func readCursor(t *testing.T, path, src string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading cursor file: %v", err)
	}
	var cf cursorFile
	if err := json.Unmarshal(b, &cf); err != nil {
		t.Fatalf("decoding cursor file: %v", err)
	}
	ent, ok := cf.Sources[src]
	if !ok {
		t.Fatalf("cursor file has no entry for %s: %s", src, b)
	}
	n, err := strconv.Atoi(ent.Cursor)
	if err != nil {
		t.Fatalf("cursor %q not an offset: %v", ent.Cursor, err)
	}
	return n
}
