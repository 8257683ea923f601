package storypivot

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/text"
)

// TestQueryDifferential is the correctness oracle for the query index:
// it replays synthetic corpora through the full pipeline — refinement
// moves enabled, a source removed mid-stream — and at every checkpoint
// asserts the indexed Search / StoriesByEntity / Timeline results are
// identical to the legacy full-scan implementations, including paged
// windows and total counts.
func TestQueryDifferential(t *testing.T) {
	for _, seed := range []int64{7, 21, 63} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			corpus := datagen.Generate(experiments.CorpusScale(600, 5, seed))
			p, err := New(WithRefinement(true), WithRepairEvery(100))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			entities := panelEntities(corpus, 8)
			queries := panelQueries(corpus, 6)

			removeAt := len(corpus.Snippets) * 3 / 5
			for i, sn := range corpus.Snippets {
				if err := p.Ingest(sn); err != nil {
					t.Fatal(err)
				}
				if i == removeAt {
					src := corpus.Snippets[0].Source
					if !p.RemoveSource(src) {
						t.Fatalf("RemoveSource(%s) had nothing to remove", src)
					}
					comparePanel(t, p, entities, queries,
						fmt.Sprintf("after RemoveSource(%s)", src))
				}
				if (i+1)%150 == 0 {
					comparePanel(t, p, entities, queries,
						fmt.Sprintf("checkpoint %d", i+1))
				}
			}
			comparePanel(t, p, entities, queries, "final")
			comparePagination(t, p, entities, queries)
		})
	}
}

// panelEntities picks a spread of query entities: the most frequent
// ones, a rare one, and a guaranteed miss.
func panelEntities(c *datagen.Corpus, n int) []Entity {
	freq := map[Entity]int{}
	for _, sn := range c.Snippets {
		for _, e := range sn.Entities {
			freq[e]++
		}
	}
	type ef struct {
		e Entity
		n int
	}
	all := make([]ef, 0, len(freq))
	for e, k := range freq {
		all = append(all, ef{e, k})
	}
	// Deterministic order: by count desc, then name.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && (all[j].n > all[j-1].n ||
			(all[j].n == all[j-1].n && all[j].e < all[j-1].e)); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	out := []Entity{"no_such_entity_zzz"}
	for i := 0; i < len(all) && len(out) < n; i++ {
		out = append(out, all[i].e)
	}
	if len(all) > 0 {
		out = append(out, all[len(all)-1].e) // rarest
	}
	return out
}

// panelQueries builds free-text queries from corpus tokens that survive
// the text pipeline unchanged (so both paths can actually hit), plus a
// duplicate-token query and a guaranteed miss.
func panelQueries(c *datagen.Corpus, n int) []string {
	seen := map[string]bool{}
	var stable []string
	for _, sn := range c.Snippets {
		for _, tm := range sn.Terms {
			if seen[tm.Token] {
				continue
			}
			seen[tm.Token] = true
			if toks := text.Pipeline(tm.Token); len(toks) == 1 && toks[0] == tm.Token {
				stable = append(stable, tm.Token)
			}
		}
		if len(stable) >= 3*n {
			break
		}
	}
	out := []string{"zzzzqq xqqqz", ""} // miss and empty
	for i := 0; i+1 < len(stable) && len(out) < n; i += 2 {
		out = append(out, stable[i]+" "+stable[i+1])
	}
	if len(stable) > 0 {
		out = append(out, stable[0])               // single token
		out = append(out, stable[0]+" "+stable[0]) // duplicate tokens
	}
	return out
}

// comparePanel runs every panel query through both paths and requires
// identical totals and ranked sequences. Integrated stories compare by
// pointer, not by ID: a stale version served under its ID is a mismatch.
func comparePanel(t *testing.T, p *Pipeline, entities []Entity, queries []string, at string) {
	t.Helper()
	p.Result() // settle alignment once so both paths see the same state
	for _, e := range entities {
		want := p.scanStoriesByEntity(e)
		got, total := p.StoriesByEntityN(e, 0, -1)
		if total != len(want) || !slices.Equal(got, want) {
			t.Fatalf("%s: StoriesByEntity(%s), compared by pointer:\nindexed (total %d): %v\nscan: %v",
				at, e, total, storyIDs(got), storyIDs(want))
		}
		wantTL := snippetIDs(p.scanTimeline(e))
		gotTL, tlTotal := p.TimelineN(e, 0, -1)
		if tlTotal != len(wantTL) || fmt.Sprint(snippetIDs(gotTL)) != fmt.Sprint(wantTL) {
			t.Fatalf("%s: Timeline(%s):\nindexed (total %d): %v\nscan: %v",
				at, e, tlTotal, snippetIDs(gotTL), wantTL)
		}
	}
	for _, q := range queries {
		want := p.scanSearch(q)
		got, total := p.SearchN(q, 0, -1)
		if total != len(want) || !slices.Equal(got, want) {
			t.Fatalf("%s: Search(%q), compared by pointer:\nindexed (total %d): %v\nscan: %v",
				at, q, total, storyIDs(got), storyIDs(want))
		}
	}
}

// comparePagination stitches small indexed windows back together and
// requires the concatenation to equal the full scan result, with the
// total constant across pages.
func comparePagination(t *testing.T, p *Pipeline, entities []Entity, queries []string) {
	t.Helper()
	p.Result()
	const window = 3
	for _, e := range entities {
		full := storyIDs(p.scanStoriesByEntity(e))
		var stitched []uint64
		for off := 0; ; off += window {
			page, total := p.StoriesByEntityN(e, off, window)
			if total != len(full) {
				t.Fatalf("StoriesByEntity(%s) page at %d: total %d, want %d", e, off, total, len(full))
			}
			if len(page) == 0 {
				break
			}
			stitched = append(stitched, storyIDs(page)...)
		}
		if fmt.Sprint(stitched) != fmt.Sprint(full) {
			t.Fatalf("StoriesByEntity(%s) stitched pages %v != full %v", e, stitched, full)
		}
	}
	for _, q := range queries {
		full := storyIDs(p.scanSearch(q))
		var stitched []uint64
		for off := 0; ; off += window {
			page, total := p.SearchN(q, off, window)
			if total != len(full) {
				t.Fatalf("Search(%q) page at %d: total %d, want %d", q, off, total, len(full))
			}
			if len(page) == 0 {
				break
			}
			stitched = append(stitched, storyIDs(page)...)
		}
		if fmt.Sprint(stitched) != fmt.Sprint(full) {
			t.Fatalf("Search(%q) stitched pages %v != full %v", q, stitched, full)
		}
	}
	for _, e := range entities {
		full := snippetIDs(p.scanTimeline(e))
		var stitched []uint64
		for off := 0; ; off += window {
			page, total := p.TimelineN(e, off, window)
			if total != len(full) {
				t.Fatalf("Timeline(%s) page at %d: total %d, want %d", e, off, total, len(full))
			}
			if len(page) == 0 {
				break
			}
			stitched = append(stitched, snippetIDs(page)...)
		}
		if fmt.Sprint(stitched) != fmt.Sprint(full) {
			t.Fatalf("Timeline(%s) stitched pages %v != full %v", e, stitched, full)
		}
	}
}

func storyIDs(in []*IntegratedStory) []uint64 {
	out := make([]uint64, len(in))
	for i, is := range in {
		out[i] = uint64(is.ID)
	}
	return out
}

func snippetIDs(in []*Snippet) []uint64 {
	out := make([]uint64, len(in))
	for i, sn := range in {
		out[i] = uint64(sn.ID)
	}
	return out
}
