package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	storypivot "repro"
)

func day(d int) time.Time { return time.Date(2014, 7, d, 0, 0, 0, 0, time.UTC) }

func demoDocs() []*storypivot.Document {
	return []*storypivot.Document{
		{Source: "nyt", URL: "http://nytimes.com/doc1.html", Published: day(17),
			Title: "Jetliner Explodes over Ukraine",
			Body:  "A Malaysia Airlines Boeing 777 with 298 people aboard exploded and crashed near Donetsk after being shot down."},
		{Source: "nyt", URL: "http://nytimes.com/doc2.html", Published: day(18),
			Title: "Evidence of Russian Links to Jet's Downing",
			Body:  "Officials leading the criminal investigation into the crash of the plane said it was shot down over Ukraine."},
		{Source: "wsj", URL: "http://online.wsj.com/doc3.html", Published: day(17),
			Title: "Passenger Jet Felled over Ukraine",
			Body:  "The United States government concluded that the passenger jet crashed over Ukraine after being shot down by a missile."},
		{Source: "wsj", URL: "http://online.wsj.com/doc4.html", Published: day(18),
			Title: "Google Battles Yelp",
			Body:  "Google rival Yelp says the search giant is promoting its own content at the expense of users."},
	}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	s.Preload(demoDocs()...)
	if err := s.SelectAll(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

func TestDocumentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var docs []DocumentView
	getJSON(t, ts.URL+"/api/documents", &docs)
	if len(docs) != 4 {
		t.Fatalf("documents = %d", len(docs))
	}
	for _, d := range docs {
		if !d.Selected {
			t.Errorf("document %s not selected after SelectAll", d.URL)
		}
		if d.Preview == "" || d.Title == "" {
			t.Errorf("document view incomplete: %+v", d)
		}
	}
}

func TestSourcesAndStories(t *testing.T) {
	s, ts := newTestServer(t)
	var sources []string
	getJSON(t, ts.URL+"/api/sources", &sources)
	if len(sources) != 2 {
		t.Fatalf("sources = %v", sources)
	}
	var stories []StoryView
	getJSON(t, ts.URL+"/api/stories?source=nyt", &stories)
	if len(stories) == 0 {
		t.Fatal("no nyt stories")
	}
	for _, st := range stories {
		if st.Source != "nyt" || st.Size == 0 {
			t.Errorf("bad story view: %+v", st)
		}
	}
	// Served from the published result, the settled server's stories are
	// the engine's live ones.
	live := s.Pipeline().Stories("nyt")
	if len(live) != len(stories) {
		t.Fatalf("/api/stories lists %d nyt stories, the engine holds %d", len(stories), len(live))
	}
	for _, st := range live {
		if !slices.ContainsFunc(stories, func(v StoryView) bool { return v.ID == uint64(st.ID) && v.Size == st.Len() }) {
			t.Errorf("/api/stories misses live story %d (%d snippets)", st.ID, st.Len())
		}
	}
	// detail=1 includes snippets.
	getJSON(t, ts.URL+"/api/stories?source=nyt&detail=1", &stories)
	if len(stories[0].Snippets) == 0 {
		t.Error("detail view missing snippets")
	}
	// Missing parameter is a 400.
	resp, _ := http.Get(ts.URL + "/api/stories")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing source -> %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestIntegratedEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	var list []IntegratedView
	getJSON(t, ts.URL+"/api/integrated", &list)
	if len(list) == 0 {
		t.Fatal("no integrated stories")
	}
	var multi *IntegratedView
	for i := range list {
		if len(list[i].Sources) > 1 {
			multi = &list[i]
		}
	}
	if multi == nil {
		t.Fatal("no multi-source story (crash must align)")
	}
	var one IntegratedView
	getJSON(t, fmt.Sprintf("%s/api/integrated/%d", ts.URL, multi.ID), &one)
	if len(one.Snippets) == 0 || len(one.Members) < 2 {
		t.Fatalf("detail view incomplete: %+v", one)
	}
	roles := 0
	for _, sn := range one.Snippets {
		if sn.Role != "" {
			roles++
		}
	}
	if roles == 0 {
		t.Error("no snippet roles in detail view")
	}
	// Unknown ID -> 404, bad ID -> 400.
	resp, _ := http.Get(ts.URL + "/api/integrated/999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id -> %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(ts.URL + "/api/integrated/xyz")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id -> %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestSearchAndTimeline(t *testing.T) {
	_, ts := newTestServer(t)
	var hits SearchPageView
	getJSON(t, ts.URL+"/api/search?q=plane+crash", &hits)
	if len(hits.Results) == 0 || hits.Total == 0 {
		t.Fatalf("search returned nothing: %+v", hits)
	}
	if hits.Total != len(hits.Results) {
		t.Fatalf("total %d != results %d on an unpaged small corpus", hits.Total, len(hits.Results))
	}
	if hits.Limit != 50 || hits.Offset != 0 {
		t.Fatalf("default page = offset %d limit %d", hits.Offset, hits.Limit)
	}
	var tl TimelinePageView
	getJSON(t, ts.URL+"/api/timeline?entity=UKR", &tl)
	if len(tl.Results) < 2 {
		t.Fatalf("timeline = %d snippets", len(tl.Results))
	}
	if tl.Total != len(tl.Results) {
		t.Fatalf("timeline total %d != results %d", tl.Total, len(tl.Results))
	}
	for i := 1; i < len(tl.Results); i++ {
		if tl.Results[i].Timestamp.Before(tl.Results[i-1].Timestamp) {
			t.Fatal("timeline not chronological")
		}
	}
}

func TestQueryPagination(t *testing.T) {
	_, ts := newTestServer(t)
	// Full timeline as reference.
	var full TimelinePageView
	getJSON(t, ts.URL+"/api/timeline?entity=UKR", &full)
	if full.Total < 2 {
		t.Fatalf("need >= 2 timeline snippets, got %d", full.Total)
	}
	// Page through one snippet at a time; pages must tile the full list.
	var paged []SnippetView
	for off := 0; off < full.Total; off++ {
		var page TimelinePageView
		getJSON(t, fmt.Sprintf("%s/api/timeline?entity=UKR&offset=%d&limit=1", ts.URL, off), &page)
		if page.Total != full.Total {
			t.Fatalf("page total %d != full total %d", page.Total, full.Total)
		}
		if len(page.Results) != 1 {
			t.Fatalf("page at offset %d = %d results", off, len(page.Results))
		}
		paged = append(paged, page.Results...)
	}
	for i := range paged {
		if paged[i].ID != full.Results[i].ID {
			t.Fatalf("paged[%d] = snippet %d, full[%d] = snippet %d", i, paged[i].ID, i, full.Results[i].ID)
		}
	}
	// Offset beyond the end: empty page, total still reported.
	var beyond TimelinePageView
	getJSON(t, fmt.Sprintf("%s/api/timeline?entity=UKR&offset=%d", ts.URL, full.Total+10), &beyond)
	if len(beyond.Results) != 0 || beyond.Total != full.Total {
		t.Fatalf("beyond-end page = %+v", beyond)
	}
	// Search pagination: limit=1 returns the top hit only.
	var all SearchPageView
	getJSON(t, ts.URL+"/api/search?q=plane+crash", &all)
	var top SearchPageView
	getJSON(t, ts.URL+"/api/search?q=plane+crash&limit=1", &top)
	if len(top.Results) != 1 || top.Results[0].ID != all.Results[0].ID {
		t.Fatalf("limit=1 top hit mismatch: %+v vs %+v", top.Results, all.Results[:1])
	}
	if top.Total != all.Total {
		t.Fatalf("paged search total %d != full %d", top.Total, all.Total)
	}
	// The limit cap holds.
	var capped SearchPageView
	getJSON(t, ts.URL+"/api/search?q=plane+crash&limit=99999", &capped)
	if capped.Limit != 500 {
		t.Fatalf("limit not capped: %d", capped.Limit)
	}
	// Malformed parameters are rejected.
	for _, u := range []string{"/api/search?q=x&offset=-1", "/api/search?q=x&limit=0", "/api/timeline?entity=UKR&limit=abc"} {
		resp, err := http.Get(ts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", u, resp.StatusCode)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	// Force an alignment so stats are warm.
	var list []IntegratedView
	getJSON(t, ts.URL+"/api/integrated", &list)
	var stats StatsView
	getJSON(t, ts.URL+"/api/stats", &stats)
	if stats.Ingested == 0 || stats.Integrated == 0 || len(stats.Sources) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.EntityCount == 0 || stats.DocumentCount != 4 {
		t.Fatalf("stats dataset panel wrong: %+v", stats)
	}
}

func TestAddRemoveDocumentFlow(t *testing.T) {
	s, ts := newTestServer(t)
	// Add a new document via POST.
	doc := storypivot.Document{
		Source: "blog", URL: "http://blog.example/p1", Published: day(19),
		Title: "Sanctions Against Russia Expanded",
		Body:  "The European Union announced expanded sanctions against Russia over the conflict in Ukraine.",
	}
	body, _ := json.Marshal(doc)
	resp, err := http.Post(ts.URL+"/api/documents", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST document -> %d", resp.StatusCode)
	}
	resp.Body.Close()
	var sources []string
	getJSON(t, ts.URL+"/api/sources", &sources)
	if len(sources) != 3 {
		t.Fatalf("sources after add = %v", sources)
	}
	// Duplicate add is rejected.
	resp, _ = http.Post(ts.URL+"/api/documents", "application/json", bytes.NewReader(body))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("duplicate add -> %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Remove it again (DELETE rebuilds the pipeline without it).
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/documents?url="+doc.URL, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE -> %d", resp.StatusCode)
	}
	resp.Body.Close()
	getJSON(t, ts.URL+"/api/sources", &sources)
	if len(sources) != 2 {
		t.Fatalf("sources after remove = %v", sources)
	}
	// Unknown delete -> 404; missing url -> 400.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/api/documents?url=http://nope", nil)
	resp, _ = http.DefaultClient.Do(req)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown delete -> %d", resp.StatusCode)
	}
	resp.Body.Close()
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/api/documents", nil)
	resp, _ = http.DefaultClient.Do(req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing url delete -> %d", resp.StatusCode)
	}
	resp.Body.Close()
	_ = s
}

func TestSelectSubsetChangesStories(t *testing.T) {
	s, ts := newTestServer(t)
	// Deselect everything but one wsj document: no multi-source stories.
	if err := s.Select([]string{"http://online.wsj.com/doc3.html"}); err != nil {
		t.Fatal(err)
	}
	var list []IntegratedView
	getJSON(t, ts.URL+"/api/integrated", &list)
	for _, is := range list {
		if len(is.Sources) > 1 {
			t.Fatal("multi-source story with only one document selected")
		}
	}
	var docs []DocumentView
	getJSON(t, ts.URL+"/api/documents", &docs)
	selected := 0
	for _, d := range docs {
		if d.Selected {
			selected++
		}
	}
	if selected != 1 {
		t.Fatalf("selected = %d", selected)
	}
}

func TestIndexPage(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET / -> %d", resp.StatusCode)
	}
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "StoryPivot") || !strings.Contains(buf.String(), "Document Selection") {
		t.Fatal("index page incomplete")
	}
	// Unknown path under / is 404.
	resp2, _ := http.Get(ts.URL + "/nope")
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope -> %d", resp2.StatusCode)
	}
	resp2.Body.Close()
}

func TestBadJSONBodies(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := http.Post(ts.URL+"/api/documents", "application/json", strings.NewReader("{nope"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad doc JSON -> %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Post(ts.URL+"/api/documents/select", "application/json", strings.NewReader("{nope"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad select JSON -> %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(ts.URL + "/api/search")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing q -> %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(ts.URL + "/api/timeline")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing entity -> %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestContextAndProfilesEndpoints(t *testing.T) {
	s, err := New(storypivot.WithKnowledgeBase(storypivot.SeedKnowledgeBase()))
	if err != nil {
		t.Fatal(err)
	}
	s.Preload(demoDocs()...)
	if err := s.SelectAll(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var list []IntegratedView
	getJSON(t, ts.URL+"/api/integrated", &list)
	var multiID uint64
	for _, is := range list {
		if len(is.Sources) > 1 {
			multiID = is.ID
		}
	}
	if multiID == 0 {
		t.Fatal("no multi-source story")
	}
	var ctx struct {
		Known   []map[string]any `json:"Known"`
		Unknown []string         `json:"Unknown"`
	}
	getJSON(t, fmt.Sprintf("%s/api/context/%d", ts.URL, multiID), &ctx)
	if len(ctx.Known) == 0 {
		t.Fatalf("context empty: %+v", ctx)
	}
	// Unknown story -> 404; bad id -> 400.
	resp, _ := http.Get(ts.URL + "/api/context/999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown story context -> %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(ts.URL + "/api/context/abc")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id context -> %d", resp.StatusCode)
	}
	resp.Body.Close()

	var profiles []map[string]any
	getJSON(t, ts.URL+"/api/profiles", &profiles)
	if len(profiles) != 2 {
		t.Fatalf("profiles = %d", len(profiles))
	}
}

func TestContextWithoutKB(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := http.Get(ts.URL + "/api/context/1")
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("context without KB -> %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestTrendingEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var trends []TrendView
	getJSON(t, ts.URL+"/api/trending?window=96h", &trends)
	// The demo corpus is tiny and recent-heavy; trending must at least
	// not error and each row must be well-formed.
	for _, tr := range trends {
		if tr.Recent <= 0 || tr.Score <= 0 {
			t.Errorf("bad trend row: %+v", tr)
		}
	}
	// Bad parameters -> 400.
	resp, _ := http.Get(ts.URL + "/api/trending?window=nope")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad window -> %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(ts.URL + "/api/trending?now=yesterday")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad now -> %d", resp.StatusCode)
	}
	resp.Body.Close()
}
