package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	storypivot "repro"
	"repro/internal/align"
	"repro/internal/event"
	"repro/internal/feed"
	"repro/internal/server"
)

// publishCounter counts one engine's publishes: one per settle, plus one
// for the result AddResultSink hands it on attach.
type publishCounter struct{ n atomic.Int64 }

func (c *publishCounter) Publish(*align.Result) { c.n.Add(1) }

// assertSettled fails unless p has a published result and nothing
// pending: a settle right after the write must run no alignment pass.
func assertSettled(t *testing.T, p *storypivot.Pipeline) {
	t.Helper()
	c := &publishCounter{}
	p.Engine().AddResultSink(c)
	if c.n.Load() != 1 {
		t.Fatal("nothing was published: the write path never settled")
	}
	p.Result()
	if n := c.n.Load(); n != 1 {
		t.Fatalf("the write left work pending: the next settle ran %d alignment pass(es)", n-1)
	}
}

// demoServer serves the demo selection the command preloads.
func demoServer(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New()
	if err != nil {
		t.Fatal(err)
	}
	s.Preload(demoDocuments()...)
	if err := s.SelectAll(); err != nil {
		t.Fatal(err)
	}
	return s, serve(t, s)
}

func serve(t *testing.T, s *server.Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts
}

// total reads the "total" of a paged query envelope.
func total(t *testing.T, base, path string, params url.Values) int {
	t.Helper()
	resp, err := http.Get(base + path + "?" + params.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s?%s = %d", path, params.Encode(), resp.StatusCode)
	}
	var page struct {
		Total int `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page.Total
}

func search(t *testing.T, base, q string) int {
	return total(t, base, "/api/search", url.Values{"q": {q}})
}

func timeline(t *testing.T, base, entity string) int {
	return total(t, base, "/api/timeline", url.Values{"entity": {entity}})
}

// send runs one write request and fails unless it is acknowledged.
func send(method, u, body string) error {
	req, err := http.NewRequest(method, u, strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s = %d", method, u, resp.StatusCode)
	}
	return nil
}

func mustSend(t *testing.T, method, u, body string) {
	t.Helper()
	if err := send(method, u, body); err != nil {
		t.Fatal(err)
	}
}

func zeppelinDoc(n int) string {
	return fmt.Sprintf(`{"source":"nyt","url":"http://nytimes.com/zeppelin%d.html","published":"2014-07-19T00:00:00Z",`+
		`"title":"Zeppelin %d Sighted over Ukraine","body":"A zeppelin drifted over Donetsk in Ukraine where the plane crashed."}`, n, n)
}

// feedSnippets are n snippets of one feed source, all mentioning entity
// ZEP, with IDs in the replay range so they cannot collide with extracted
// ones.
func feedSnippets(src string, n int) []*event.Snippet {
	base := time.Date(2014, 7, 20, 0, 0, 0, 0, time.UTC)
	out := make([]*event.Snippet, n)
	for i := range out {
		sn := &event.Snippet{
			ID:        event.SnippetID(replayIDOffset + i + 1),
			Source:    event.SourceID(src),
			Timestamp: base.Add(time.Duration(i) * time.Minute),
			Entities:  []event.Entity{"ZEP"},
			Terms:     []event.Term{{Token: "zeppelin", Weight: 1}},
		}
		sn.Normalize()
		out[i] = sn
	}
	return out
}

// TestWritePathsSettle runs every path that writes into a server's
// pipeline. When each returns, the write is visible to a query and the
// engine holds nothing a settle would still have to align: reads never
// settle, so the write path must have.
func TestWritePathsSettle(t *testing.T) {
	cases := []struct {
		name string
		// write sets up a server, runs the write path on it and returns
		// the server and its HTTP front.
		write func(t *testing.T) (*server.Server, *httptest.Server)
		shows func(t *testing.T, base string) bool
	}{
		{
			name: "POST /api/documents",
			write: func(t *testing.T) (*server.Server, *httptest.Server) {
				s, ts := demoServer(t)
				mustSend(t, http.MethodPost, ts.URL+"/api/documents", zeppelinDoc(1))
				return s, ts
			},
			shows: func(t *testing.T, base string) bool { return search(t, base, "zeppelin") > 0 },
		},
		{
			name: "select",
			write: func(t *testing.T) (*server.Server, *httptest.Server) {
				s, ts := demoServer(t)
				mustSend(t, http.MethodPost, ts.URL+"/api/documents/select", `{"urls":["http://online.wsj.com/doc4.html"]}`)
				return s, ts
			},
			shows: func(t *testing.T, base string) bool {
				return timeline(t, base, "YELP") > 0 && timeline(t, base, "UKR") == 0
			},
		},
		{
			name: "remove-document",
			write: func(t *testing.T) (*server.Server, *httptest.Server) {
				s, ts := demoServer(t)
				mustSend(t, http.MethodDelete, ts.URL+"/api/documents?url="+url.QueryEscape("http://online.wsj.com/doc4.html"), "")
				return s, ts
			},
			shows: func(t *testing.T, base string) bool { return timeline(t, base, "YELP") == 0 },
		},
		{
			name: "feed batch",
			write: func(t *testing.T) (*server.Server, *httptest.Server) {
				s, ts := demoServer(t)
				m, err := feed.NewManager(pipelineSink{s}, feed.Config{BatchSize: 64, PollInterval: time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Add(feed.NewReplay("feedsrc", feedSnippets("feedsrc", 20), 0)); err != nil {
					t.Fatal(err)
				}
				if err := m.Start(); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { m.Close() })
				// The runner settles a batch before its cursor advances, and
				// CaughtUp turns true at that advance.
				for deadline := time.Now().Add(10 * time.Second); !m.CaughtUp(); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("the feed never caught up")
					}
				}
				return s, ts
			},
			shows: func(t *testing.T, base string) bool { return timeline(t, base, "ZEP") == 20 },
		},
		{
			name: "feed-tenure RemoveSource",
			write: func(t *testing.T) (*server.Server, *httptest.Server) {
				s, ts := demoServer(t)
				p := s.Pipeline()
				p.IngestAll(feedSnippets("feedsrc", 20))
				p.Result()
				if timeline(t, ts.URL, "ZEP") != 20 {
					t.Fatal("the tenure's snippets are not visible before the removal")
				}
				if !(pipelineSink{s}).RemoveSource("feedsrc") {
					t.Fatal("RemoveSource removed nothing")
				}
				return s, ts
			},
			shows: func(t *testing.T, base string) bool { return timeline(t, base, "ZEP") == 0 },
		},
		{
			name: "server.New over a restored store",
			write: func(t *testing.T) (*server.Server, *httptest.Server) {
				dir := t.TempDir()
				p, err := storypivot.New(storypivot.WithStorage(dir))
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range demoDocuments() {
					if _, err := p.AddDocument(d); err != nil {
						t.Fatal(err)
					}
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				s, err := server.New(storypivot.WithStorage(dir))
				if err != nil {
					t.Fatal(err)
				}
				return s, serve(t, s)
			},
			shows: func(t *testing.T, base string) bool {
				return timeline(t, base, "YELP") > 0 && timeline(t, base, "UKR") > 0
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := tc.write(t)
			if !tc.shows(t, ts.URL) {
				t.Fatal("a query after the write does not show it")
			}
			assertSettled(t, s.Pipeline())
		})
	}
}

// TestPostsSettleOnceEach: N POSTs, with readers hammering the query
// routes throughout, run exactly N alignment passes. Each write settles
// once before its ack, and no read settles.
func TestPostsSettleOnceEach(t *testing.T) {
	s, ts := demoServer(t)
	c := &publishCounter{}
	s.Pipeline().Engine().AddResultSink(c)
	attached := c.n.Load()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	paths := []string{"/api/search?q=zeppelin", "/api/timeline?entity=UKR", "/api/integrated",
		"/api/stories/by-entity?entity=UKR", "/api/stats", "/api/trending", "/api/profiles"}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + paths[i%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s = %d", paths[i%len(paths)], resp.StatusCode)
					return
				}
			}
		}(r)
	}
	const posts = 8
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < posts/2; i++ {
				if err := send(http.MethodPost, ts.URL+"/api/documents", zeppelinDoc(w*posts+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if n := c.n.Load() - attached; n != posts {
		t.Fatalf("%d POSTs ran %d alignment passes, want exactly one each", posts, n)
	}
	assertSettled(t, s.Pipeline())
}
