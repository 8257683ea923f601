package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	storypivot "repro"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/text"
)

// tierDiffCorpus builds a synthetic corpus whose snippets carry display
// text and a document URL, so the tiered pipeline's hydration path is
// actually exercised: datagen terms and entities drive matching, while
// the text is render-only payload the tiers strip from the engine.
func tierDiffCorpus(size, sources int, seed int64) *datagen.Corpus {
	c := datagen.Generate(experiments.CorpusScale(size, sources, seed))
	for _, sn := range c.Snippets {
		sn.Text = fmt.Sprintf("display text of snippet %d from %s", sn.ID, sn.Source)
		sn.Document = fmt.Sprintf("http://%s/doc%d.html", sn.Source, sn.ID)
	}
	return c
}

// tierDiffEntities picks the most frequent corpus entities plus a miss.
func tierDiffEntities(c *datagen.Corpus, n int) []string {
	freq := map[string]int{}
	for _, sn := range c.Snippets {
		for _, e := range sn.Entities {
			freq[string(e)]++
		}
	}
	out := []string{"no_such_entity_zzz"}
	for len(out) < n {
		best, bestN := "", -1
		for e, k := range freq {
			if k > bestN || (k == bestN && e < best) {
				best, bestN = e, k
			}
		}
		if bestN < 0 {
			break
		}
		delete(freq, best)
		out = append(out, best)
	}
	return out
}

// tierDiffQueries builds free-text queries from corpus tokens that
// survive the text pipeline unchanged, plus a guaranteed miss.
func tierDiffQueries(c *datagen.Corpus, n int) []string {
	seen := map[string]bool{}
	out := []string{"zzzzqq xqqqz"}
	for _, sn := range c.Snippets {
		for _, tm := range sn.Terms {
			if seen[tm.Token] || len(out) >= n {
				continue
			}
			seen[tm.Token] = true
			if toks := text.Pipeline(tm.Token); len(toks) == 1 && toks[0] == tm.Token {
				out = append(out, tm.Token)
			}
		}
	}
	return out
}

func fetchRaw(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestTieredServerDifferential is the correctness oracle of the tiered
// snippet store at the API boundary: two servers ingest the same corpus
// — one over a store without budgets (every sealed chunk mapped, the
// engine keeps text), one with a warm budget sized so most chunks go
// cold and compressed (the engine's text stripped and hydrated) — and
// every query endpoint must return byte-identical responses. The tiers
// may move payload bytes between mmap and gzip; they may never change a
// response.
func TestTieredServerDifferential(t *testing.T) {
	for _, seed := range []int64{7, 21, 63} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			corpus := tierDiffCorpus(400, 3, seed)

			flat, err := New(storypivot.WithStorage(t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			defer flat.Close()
			tiered, err := New(
				storypivot.WithStorage(t.TempDir()),
				storypivot.WithTieredStorage(4, true),
				storypivot.WithTierChunkRows(32),
				storypivot.WithTierColdCache(1, 2),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer tiered.Close()

			for _, sn := range corpus.Snippets {
				if err := flat.Pipeline().Ingest(sn.Clone()); err != nil {
					t.Fatal(err)
				}
				if err := tiered.Pipeline().Ingest(sn); err != nil {
					t.Fatal(err)
				}
			}
			flat.Pipeline().Result()
			tiered.Pipeline().Result()
			if st, _ := flat.Pipeline().TierStats(); st.Cold != 0 || st.Demotions != 0 {
				t.Fatalf("store without budgets demoted chunks: %+v", st)
			}
			if st, ok := tiered.Pipeline().TierStats(); !ok || st.Cold == 0 {
				t.Fatalf("tiered pipeline has no cold chunks; differential exercises nothing: %+v", st)
			}

			tsFlat := httptest.NewServer(flat.Handler())
			defer tsFlat.Close()
			tsTiered := httptest.NewServer(tiered.Handler())
			defer tsTiered.Close()

			var paths []string
			for _, e := range tierDiffEntities(corpus, 6) {
				q := url.QueryEscape(e)
				paths = append(paths,
					"/api/timeline?entity="+q+"&limit=500",
					"/api/stories/by-entity?entity="+q+"&limit=500",
					"/api/stories/by-entity?entity="+q+"&scores=1",
				)
			}
			for _, q := range tierDiffQueries(corpus, 5) {
				paths = append(paths, "/api/search?q="+url.QueryEscape(q)+"&limit=500")
			}
			paths = append(paths, "/api/integrated", "/api/stories", "/api/trending")

			// Detail views hydrate member snippet text from the tiers.
			var integrated []struct {
				ID uint64 `json:"id"`
			}
			_, body := fetchRaw(t, tsFlat.URL, "/api/integrated")
			if err := json.Unmarshal(body, &integrated); err != nil {
				t.Fatal(err)
			}
			if len(integrated) == 0 {
				t.Fatal("no integrated stories; differential exercises nothing")
			}
			for i, is := range integrated {
				if i >= 5 {
					break
				}
				paths = append(paths, fmt.Sprintf("/api/integrated/%d", is.ID))
			}

			for _, path := range paths {
				codeF, bodyF := fetchRaw(t, tsFlat.URL, path)
				codeT, bodyT := fetchRaw(t, tsTiered.URL, path)
				if codeF != codeT {
					t.Fatalf("%s: status %d (flat) vs %d (tiered)", path, codeF, codeT)
				}
				if string(bodyF) != string(bodyT) {
					t.Fatalf("%s: responses diverge\nflat:   %.300s\ntiered: %.300s", path, bodyF, bodyT)
				}
			}
		})
	}
}

// TestTieredRetirementRoundTrip retires stories under tiered storage and
// reactivates one: the reactivated members come back from the store
// stripped as the engine holds every snippet there, and the search and
// timeline responses stay byte-identical to an untiered retiring
// pipeline fed the same snippets, hydrated text included.
func TestTieredRetirementRoundTrip(t *testing.T) {
	const window = 16 * 24 * time.Hour
	corpus := tierDiffCorpus(600, 3, 7)
	flat, err := New(storypivot.WithStorage(t.TempDir()), storypivot.WithRetireWindow(window))
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	tiered, err := New(
		storypivot.WithStorage(t.TempDir()),
		storypivot.WithTieredStorage(4, true),
		storypivot.WithTierChunkRows(32),
		storypivot.WithTierColdCache(1, 2),
		storypivot.WithRetireWindow(window),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	ingest := func(sn *storypivot.Snippet) {
		t.Helper()
		if err := flat.Pipeline().Ingest(sn.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := tiered.Pipeline().Ingest(sn); err != nil {
			t.Fatal(err)
		}
	}
	for i, sn := range corpus.Snippets {
		ingest(sn)
		if (i+1)%32 == 0 {
			flat.Pipeline().Result()
			tiered.Pipeline().Result()
		}
	}
	tp := tiered.Pipeline()
	tp.Result()
	flat.Pipeline().Result()
	if st, _ := tp.TierStats(); st.Cold == 0 {
		t.Fatalf("tiered pipeline has no cold chunks: %+v", st)
	}

	// New evidence for the earliest retired story: a copy of one of its
	// snippets under a fresh ID.
	var late *storypivot.Snippet
	var target storypivot.StoryID
	for _, sn := range corpus.Snippets {
		if sid := tp.StoryOf(sn.Source, sn.ID); tp.Retire().Has(sid) {
			late, target = sn.Clone(), sid
			late.ID = corpus.Snippets[len(corpus.Snippets)-1].ID + 1000
			late.Text = "late evidence"
			break
		}
	}
	if late == nil {
		t.Fatalf("nothing retired: %+v", tp.Retire().Snapshot())
	}
	ingest(late)
	tp.Result()
	flat.Pipeline().Result()
	if tp.Retire().Snapshot().Reactivated == 0 || tp.Retire().Has(target) {
		t.Fatalf("story %d not reactivated: %+v", target, tp.Retire().Snapshot())
	}
	var reactivated *storypivot.Story
	for _, st := range tp.Stories(late.Source) {
		if st.ID == target {
			reactivated = st
		}
	}
	if reactivated == nil {
		t.Fatalf("reactivated story %d not resident", target)
	}
	for _, sn := range reactivated.Snippets {
		if sn.Text != "" || sn.Document != "" {
			t.Fatalf("reactivated snippet %d holds text %q, document %q in the engine", sn.ID, sn.Text, sn.Document)
		}
	}

	tsFlat := httptest.NewServer(flat.Handler())
	defer tsFlat.Close()
	tsTiered := httptest.NewServer(tiered.Handler())
	defer tsTiered.Close()
	var paths []string
	for _, e := range append(tierDiffEntities(corpus, 6), string(late.Entities[0])) {
		paths = append(paths, "/api/timeline?entity="+url.QueryEscape(e)+"&limit=500")
	}
	for _, q := range tierDiffQueries(corpus, 5) {
		paths = append(paths, "/api/search?q="+url.QueryEscape(q)+"&limit=500")
	}
	for _, path := range paths {
		codeF, bodyF := fetchRaw(t, tsFlat.URL, path)
		codeT, bodyT := fetchRaw(t, tsTiered.URL, path)
		if codeF != codeT || string(bodyF) != string(bodyT) {
			t.Fatalf("%s: responses diverge\nflat (%d):   %.300s\ntiered (%d): %.300s", path, codeF, bodyF, codeT, bodyT)
		}
	}
	_, body := fetchRaw(t, tsTiered.URL, "/api/timeline?entity="+url.QueryEscape(string(late.Entities[0]))+"&limit=500")
	if !strings.Contains(string(body), "late evidence") || !strings.Contains(string(body), "display text of snippet") {
		t.Fatalf("timeline of the reactivated story lacks hydrated text: %.300s", body)
	}
}
