package storypivot

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/experiments"
)

// TestQuerySteadyStateAllocs pins the steady-state allocation profile of
// the indexed query path. After the corpus is ingested, aligned, and one
// warm-up round has grown the pooled accumulator and hit buffers, each
// query may allocate only its own result page (plus, for Search, the
// tokenised query and the two sort.Slice headers): the postings walk,
// the score accumulator, and the ranking heap are all allocation-free.
// The legacy scan path materialises per-story entity/centroid maps and
// re-sorts the corpus per query, so it cannot meet these bounds — the
// pins are what keep the indexed path honest. sync.Pool bypasses its
// caches under the race detector, so there the queries run unpinned.
func TestQuerySteadyStateAllocs(t *testing.T) {
	corpus := datagen.Generate(experiments.CorpusScale(2000, 5, 17))
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.IngestAll(corpus.Snippets)
	p.Result() // settle alignment; queries below hit the published index

	ent := corpus.Snippets[0].Entities[0]
	query := corpus.Snippets[0].Terms[0].Token + " " + corpus.Snippets[1].Terms[0].Token

	cases := []struct {
		name string
		run  func()
		max  float64
	}{
		// Full StoriesByEntity: result slice + sort.Slice machinery.
		{"StoriesByEntity", func() { p.StoriesByEntityN(ent, 0, -1) }, 4},
		// Paged: bounded heap ranks in place; result page is the only
		// data allocation.
		{"StoriesByEntityPaged", func() { p.StoriesByEntityN(ent, 0, 10) }, 4},
		// Search adds query tokenisation (tokenise/stopword/stem).
		{"Search", func() { p.SearchN(query, 0, -1) }, 13},
		{"SearchPaged", func() { p.SearchN(query, 0, 10) }, 13},
		// Timeline is two-pass over the entity's segments: exactly the
		// result slice.
		{"Timeline", func() { p.TimelineN(ent, 0, -1) }, 1},
		{"TimelinePaged", func() { p.TimelineN(ent, 10, 25) }, 1},
		// A miss allocates nothing at all.
		{"TimelineMiss", func() { p.TimelineN("no_such_entity_zzz", 0, -1) }, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 3; i++ { // grow pooled buffers before measuring
				tc.run()
			}
			allocs := testing.AllocsPerRun(100, tc.run)
			t.Logf("%s: %v allocs/op", tc.name, allocs)
			if allocs > tc.max && !raceEnabled {
				t.Errorf("%s: %v allocs/op, want <= %v", tc.name, allocs, tc.max)
			}
		})
	}
}
