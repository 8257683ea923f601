package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/qcache"
	"repro/internal/stream"
)

// gateSink stands in front of the query index as the engine's primary
// sink. Once armed, the next publish parks until release is closed, with
// the settle that runs it holding Engine.mu and nothing of its result
// visible to readers yet.
type gateSink struct {
	inner   stream.ResultSink
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gateSink) Publish(res *align.Result) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	g.inner.Publish(res)
}

// TestReadsDoNotWaitForSettle parks a POST's settle mid-publish and reads
// every route that used to settle, or wait on Engine.mu, while it is
// parked: each answers within the deadline with the pre-write state. Once
// the settle is released and the POST acks, the same reads show the write.
func TestReadsDoNotWaitForSettle(t *testing.T) {
	for _, cached := range []bool{false, true} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			s, err := New()
			if err != nil {
				t.Fatal(err)
			}
			if cached {
				s.EnableCache(qcache.Config{TTL: -1, MaxEntries: -1, SweepInterval: -1})
			}
			s.Preload(demoDocs()...)
			if err := s.SelectAll(); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer func() { ts.Close(); s.Close() }()

			p := s.Pipeline()
			gate := &gateSink{inner: p.Index(), entered: make(chan struct{}), release: make(chan struct{})}
			p.Engine().SetResultSink(gate)
			release := sync.OnceFunc(func() { close(gate.release) })
			defer release() // before the server closes: a failed test must not leave the POST parked

			// The pinned `now` keeps /api/trending off the ingested time
			// range, which an ingest moves before its settle.
			paths := []string{
				"/api/search?q=zeppelin",
				"/api/search?q=crash",
				"/api/stories/by-entity?entity=UKR",
				"/api/timeline?entity=UKR",
				"/api/integrated",
				"/api/trending?now=2014-07-19T12:00:00Z&window=72h",
				"/api/sources",
				"/api/stories?source=nyt",
			}
			client := &http.Client{Timeout: 5 * time.Second}
			read := func(path string) []byte {
				t.Helper()
				resp, err := client.Get(ts.URL + path)
				if err != nil {
					t.Fatalf("GET %s: %v", path, err)
				}
				defer resp.Body.Close()
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, buf.String())
				}
				return buf.Bytes()
			}
			stats := func() StatsView {
				t.Helper()
				var v StatsView
				if err := json.Unmarshal(read("/api/stats"), &v); err != nil {
					t.Fatal(err)
				}
				return v
			}

			before := map[string][]byte{}
			for _, path := range paths {
				before[path] = read(path)
			}
			statsBefore := stats()
			var probe SearchPageView
			if err := json.Unmarshal(before["/api/search?q=zeppelin"], &probe); err != nil || probe.Total != 0 {
				t.Fatalf("the probe term is already indexed (%v): %s", err, before["/api/search?q=zeppelin"])
			}

			gate.armed.Store(true)
			acked := make(chan int, 1)
			go func() {
				doc := `{"source":"nyt","url":"http://nytimes.com/doc9.html","published":"2014-07-19T00:00:00Z",` +
					`"title":"Zeppelin Sighted over Ukraine","body":"A zeppelin drifted over Donetsk in Ukraine where the plane crashed."}`
				resp, err := http.Post(ts.URL+"/api/documents", "application/json", strings.NewReader(doc))
				if err != nil {
					acked <- 0
					return
				}
				resp.Body.Close()
				acked <- resp.StatusCode
			}()
			select {
			case <-gate.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("the POST never reached its settle's publish")
			}

			for _, path := range paths {
				if got := read(path); !bytes.Equal(got, before[path]) {
					t.Errorf("GET %s during the settle left the pre-write state:\nbefore: %.300s\nduring: %.300s", path, before[path], got)
				}
			}
			during := stats()
			if during.Integrated != statsBefore.Integrated || during.MultiSource != statsBefore.MultiSource || during.Matches != statsBefore.Matches {
				t.Errorf("GET /api/stats during the settle left the pre-write result: before %+v, during %+v", statsBefore, during)
			}
			select {
			case code := <-acked:
				t.Fatalf("the POST acked (%d) before its settle was released", code)
			default:
			}

			release()
			if code := <-acked; code != http.StatusOK {
				t.Fatalf("POST /api/documents = %d", code)
			}
			for _, path := range paths {
				if path == "/api/search?q=crash" || path == "/api/sources" {
					continue // the new snippet need not rank in this window; nyt was a source already
				}
				if got := read(path); bytes.Equal(got, before[path]) {
					t.Errorf("GET %s after the ack does not show the write: %.300s", path, got)
				}
			}
			if after := stats(); after.Ingested <= statsBefore.Ingested {
				t.Errorf("GET /api/stats after the ack: ingested %d, was %d", after.Ingested, statsBefore.Ingested)
			}
		})
	}
}

// The statistics module's align time is the mean of the engine's settle
// histogram, which the server's writes feed, not a timer around a read.
func TestStatsAlignMeanFromSettles(t *testing.T) {
	_, ts := newTestServer(t)
	var v StatsView
	getJSON(t, ts.URL+"/api/stats", &v)
	if v.AlignMeanMs <= 0 {
		t.Fatalf("alignMeanMs = %v after the settles of SelectAll", v.AlignMeanMs)
	}
}
