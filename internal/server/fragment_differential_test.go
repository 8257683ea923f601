package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	storypivot "repro"
	"repro/internal/event"
	"repro/internal/httpx"
)

// searchPage is the struct rendering of a SearchPageView that the
// fragment path replaced, kept as the oracle the fragments must match.
func searchPage(hits []*storypivot.IntegratedStory, scores []float64, total, offset, limit int) SearchPageView {
	out := make([]IntegratedView, 0, len(hits))
	for _, is := range hits {
		out = append(out, integratedView(nil, is, false))
	}
	return SearchPageView{Total: total, Offset: offset, Limit: limit, Results: out, Scores: scores}
}

// timelinePage is the struct rendering of a TimelinePageView, the
// oracle of snippetFragment.
func timelinePage(rd snippetTexter, sns []*storypivot.Snippet, total, offset, limit int) TimelinePageView {
	out := make([]SnippetView, 0, len(sns))
	for _, sn := range sns {
		v, _ := snippetView(rd, sn, event.RoleUnknown)
		out = append(out, v)
	}
	return TimelinePageView{Total: total, Offset: offset, Limit: limit, Results: out}
}

// oracleBody renders the response to path from p through the struct
// views, as the handlers did before they spliced fragments.
func oracleBody(t *testing.T, p *storypivot.Pipeline, path string) []byte {
	t.Helper()
	u, err := url.Parse(path)
	if err != nil {
		t.Fatal(err)
	}
	vals := u.Query()
	rec := httptest.NewRecorder()
	offset, limit, ok := httpx.PageParams(rec, vals)
	if !ok {
		t.Fatalf("%s: bad page parameters", path)
	}
	scored := vals.Get("scores") == "1"
	var view any
	switch u.Path {
	case "/api/search":
		q := vals.Get("q")
		if scored {
			hits, scores, total := p.SearchScoredN(q, offset, limit)
			view = searchPage(hits, scores, total, offset, limit)
		} else {
			hits, total := p.SearchN(q, offset, limit)
			view = searchPage(hits, nil, total, offset, limit)
		}
	case "/api/stories/by-entity":
		e := storypivot.Entity(vals.Get("entity"))
		if scored {
			hits, scores, total := p.StoriesByEntityScoredN(e, offset, limit)
			view = searchPage(hits, scores, total, offset, limit)
		} else {
			hits, total := p.StoriesByEntityN(e, offset, limit)
			view = searchPage(hits, nil, total, offset, limit)
		}
	case "/api/timeline":
		sns, total := p.TimelineN(storypivot.Entity(vals.Get("entity")), offset, limit)
		view = timelinePage(p, sns, total, offset, limit)
	case "/api/integrated":
		out := []IntegratedView{}
		for _, is := range p.Result().Integrated() {
			out = append(out, integratedView(nil, is, false))
		}
		view = out
	case "/api/trending":
		_, now := p.Engine().TimeRange()
		out := []TrendView{}
		for _, tr := range p.Trending(now, 72*time.Hour) {
			out = append(out, TrendView{Story: integratedView(nil, tr.Story, false), Recent: tr.Recent, Score: tr.Score})
		}
		view = out
	default:
		t.Fatalf("no oracle for %s", path)
	}
	body, ok := httpx.EncodeJSON(rec, view)
	if !ok {
		t.Fatalf("%s: oracle encoding failed: %s", path, rec.Body.String())
	}
	return body
}

// fragmentPaths lists every request of one read round: each endpoint that
// splices a story or snippet fragment, plain and scored, default and
// paged.
func fragmentPaths(entities []event.Entity, queries []string) []string {
	var paths []string
	for _, e := range entities {
		q := url.QueryEscape(string(e))
		paths = append(paths,
			"/api/timeline?entity="+q,
			"/api/timeline?entity="+q+"&offset=3&limit=7",
			"/api/stories/by-entity?entity="+q,
			"/api/stories/by-entity?entity="+q+"&scores=1",
		)
	}
	for _, q := range queries {
		q = url.QueryEscape(q)
		paths = append(paths,
			"/api/search?q="+q,
			"/api/search?q="+q+"&scores=1&offset=1&limit=5",
		)
	}
	return append(paths, "/api/integrated", "/api/trending")
}

// TestFragmentRenderingMatchesStructOracle proves the render-once slots
// change no byte: the handlers splice each story's and snippet's
// memoized fragment into the page, the oracle encodes the struct views
// from the same settled pipeline, and the bodies must be equal. Reads
// alternate with ingest rounds (refinement on, a source removed
// mid-stream), so stories are re-versioned, their old slots orphaned,
// and later rounds read the slots that survived. A tiered pipeline rides
// along: its snippets' text is hydrated from the store, must render
// identically, and must never be memoized.
func TestFragmentRenderingMatchesStructOracle(t *testing.T) {
	for _, seed := range []int64{7, 21, 63} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			corpus := tierDiffCorpus(400, 4, seed)
			entities := corpusEntities(corpus, 6)
			paths := fragmentPaths(entities, corpusQueries(corpus, 4))

			flat, err := New(storypivot.WithRefinement(true))
			if err != nil {
				t.Fatal(err)
			}
			defer flat.Close()
			servers := []*Server{flat}
			if seed == 7 {
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
				servers = append(servers, tiered)
			}

			// filled holds the stories whose slot a read round filled.
			filled := make([]map[*event.IntegratedStory]bool, len(servers))
			var orphaned, reused int
			read := func(at string) {
				for i, s := range servers {
					p := s.Pipeline()
					live := map[*event.IntegratedStory]bool{}
					for _, is := range p.Result().Integrated() {
						live[is] = true
						if filled[i][is] {
							reused++
						}
					}
					for is := range filled[i] {
						if !live[is] {
							orphaned++
						}
					}
					mux := s.rawMux()
					for _, path := range paths {
						rec := httptest.NewRecorder()
						mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
						if rec.Code != http.StatusOK {
							t.Fatalf("%s server %d %s: status %d: %s", at, i, path, rec.Code, rec.Body.String())
						}
						if want := oracleBody(t, p, path); rec.Body.String() != string(want) {
							t.Fatalf("%s server %d %s: fragments diverge from the struct oracle\nfragments: %.400s\noracle:    %.400s",
								at, i, path, rec.Body.String(), want)
						}
					}
					filled[i] = map[*event.IntegratedStory]bool{}
					for is := range live {
						if is.Rendered() != nil {
							filled[i][is] = true
						}
					}
				}
			}

			removeAt := len(corpus.Snippets) * 3 / 5
			for n, sn := range corpus.Snippets {
				for _, s := range servers {
					if err := s.Pipeline().Ingest(sn.Clone()); err != nil {
						t.Fatal(err)
					}
				}
				if n == removeAt {
					for _, s := range servers {
						if !s.Pipeline().RemoveSource(corpus.Snippets[0].Source) {
							t.Fatal("RemoveSource had nothing to remove")
						}
					}
					read(fmt.Sprintf("after RemoveSource at %d", n+1))
				}
				if (n+1)%80 == 0 {
					read(fmt.Sprintf("checkpoint %d", n+1))
				}
			}
			read("final")

			if len(filled[0]) == 0 || reused == 0 || orphaned == 0 {
				t.Fatalf("slots filled %d, read again %d, orphaned %d: the differential exercised too little",
					len(filled[0]), reused, orphaned)
			}
			if len(servers) > 1 {
				tp := servers[1].Pipeline()
				if st, ok := tp.TierStats(); !ok || st.Cold == 0 {
					t.Fatalf("tiered pipeline has no cold chunks: %+v", st)
				}
				var hydrated int
				for _, e := range entities {
					sns, _ := tp.TimelineN(e, 0, 1000)
					for _, sn := range sns {
						if sn.Text != "" || sn.Document != "" {
							t.Fatalf("tiered engine holds text of snippet %d", sn.ID)
						}
						if sn.Rendered() != nil {
							t.Fatalf("hydrated snippet %d was memoized", sn.ID)
						}
						hydrated++
					}
				}
				if hydrated == 0 {
					t.Fatal("no tiered timeline snippet: the hydration rule was not exercised")
				}
			}
			t.Logf("seed %d: %d slots live at the end, %d read again after an ingest round, %d orphaned",
				seed, len(filled[0]), reused, orphaned)
		})
	}
}

// TestSnippetCloneRendersOwnID: a clone starts with an empty slot, so
// rewriting its ID after the original was rendered shows the new ID.
func TestSnippetCloneRendersOwnID(t *testing.T) {
	sn := &event.Snippet{ID: 1, Source: "nyt", Timestamp: day(17), Entities: []event.Entity{"UKR"}, Text: "t"}
	orig, err := snippetFragment(nil, sn)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Rendered() == nil {
		t.Fatal("rendering a resident snippet did not fill its slot")
	}
	cp := sn.Clone()
	cp.ID = 2
	got, err := snippetFragment(nil, cp)
	if err != nil {
		t.Fatal(err)
	}
	// The page layout: the encoder's indent at the depth of "results".
	want := `{
      "id": 2,
      "source": "nyt",
      "timestamp": "2014-07-17T00:00:00Z",
      "entities": [
        "UKR"
      ],
      "description": null,
      "text": "t"
    }`
	if string(*got) != want {
		t.Fatalf("clone renders %s, want %s (original %s)", *got, want, *orig)
	}
}

// TestStoryFragmentSkipsHandBuilt: only a versioned story promises an
// unchanging member list, so a hand-built one (Version 0) is rendered
// every time and its slot stays empty.
func TestStoryFragmentSkipsHandBuilt(t *testing.T) {
	st := event.NewStory(1, "nyt")
	st.Add(&event.Snippet{ID: 1, Source: "nyt", Timestamp: day(17), Entities: []event.Entity{"UKR"}})
	is := event.NewIntegratedStory(1, []*event.Story{st})
	if _, err := storyFragment(is); err != nil {
		t.Fatal(err)
	}
	if is.Rendered() != nil {
		t.Fatal("a hand-built story (Version 0) was memoized")
	}
	is.Version = 1
	if _, err := storyFragment(is); err != nil {
		t.Fatal(err)
	}
	if is.Rendered() == nil {
		t.Fatal("a versioned story was not memoized")
	}
}
