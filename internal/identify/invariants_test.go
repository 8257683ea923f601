package identify

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/datagen"
	"repro/internal/event"
)

// Property-based invariants of story identification, checked on random
// mini-corpora:
//
//  1. Partition: every processed snippet is in exactly one story, and
//     Assignment agrees with story membership.
//  2. Source purity: every story holds only its own source's snippets.
//  3. Aggregate consistency: EntityFreq and Centroid equal the sums over
//     member snippets.
//  4. Chronology: story snippet lists are time-ordered.

func randomMiniCorpus(seed int64) []*event.Snippet {
	cfg := datagen.DefaultConfig()
	cfg.Seed = seed
	cfg.Sources = 1 + int(seed%3)
	cfg.Stories = 3 + int(seed%5)
	cfg.EventsPerStory = 4
	return datagen.Generate(cfg).Snippets
}

func checkInvariants(t *testing.T, seed int64, cfg Config) bool {
	t.Helper()
	snippets := randomMiniCorpus(seed)
	ids := RunAll(snippets, cfg, nil)

	seen := map[event.SnippetID]event.StoryID{}
	for src, id := range ids {
		for _, st := range id.Stories() {
			if st.Source != src {
				t.Logf("seed %d: story %d source %s in identifier %s", seed, st.ID, st.Source, src)
				return false
			}
			entFreq := map[event.Entity]int{}
			centroid := map[string]float64{}
			for i, sn := range st.Snippets {
				if prev, dup := seen[sn.ID]; dup {
					t.Logf("seed %d: snippet %d in stories %d and %d", seed, sn.ID, prev, st.ID)
					return false
				}
				seen[sn.ID] = st.ID
				if id.StoryOf(sn.ID) != st.ID {
					t.Logf("seed %d: assignment mismatch for %d", seed, sn.ID)
					return false
				}
				if sn.Source != st.Source {
					return false
				}
				if i > 0 && sn.Timestamp.Before(st.Snippets[i-1].Timestamp) {
					t.Logf("seed %d: story %d not chronological", seed, st.ID)
					return false
				}
				for _, e := range sn.Entities {
					entFreq[e]++
				}
				for _, tm := range sn.Terms {
					centroid[tm.Token] += tm.Weight
				}
			}
			gotFreq, gotCen := make(map[event.Entity]int), st.CentroidMap()
			for _, ec := range st.TopEntities(0) {
				gotFreq[ec.Entity] = ec.Count
			}
			if len(entFreq) != len(gotFreq) {
				t.Logf("seed %d: story %d entity aggregate drift", seed, st.ID)
				return false
			}
			for e, c := range entFreq {
				if gotFreq[e] != c {
					return false
				}
			}
			for tok, w := range centroid {
				if d := gotCen[tok] - w; d > 1e-9 || d < -1e-9 {
					t.Logf("seed %d: story %d centroid drift on %s", seed, st.ID, tok)
					return false
				}
			}
		}
	}
	if len(seen) != len(snippets) {
		t.Logf("seed %d: %d of %d snippets assigned", seed, len(seen), len(snippets))
		return false
	}
	return true
}

func TestInvariantsQuickTemporal(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		return checkInvariants(t, seed%1000, DefaultConfig())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsQuickComplete(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeComplete
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		return checkInvariants(t, seed%1000, cfg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsSurviveRepairAndMoves(t *testing.T) {
	// Aggressive repair plus random moves must preserve the partition.
	cfg := DefaultConfig()
	cfg.RepairEvery = 8
	snippets := randomMiniCorpus(42)
	ids := RunAll(snippets, cfg, nil)
	rng := rand.New(rand.NewSource(42))
	for _, id := range ids {
		stories := id.Stories()
		if len(stories) < 2 {
			continue
		}
		for i := 0; i < 10; i++ {
			from := stories[rng.Intn(len(stories))]
			to := stories[rng.Intn(len(stories))]
			if from.Len() == 0 || from.ID == to.ID || to.Len() == 0 {
				continue
			}
			id.Move(from.Snippets[0].ID, to.ID)
			stories = id.Stories() // refresh: moves can drop stories
			if len(stories) < 2 {
				break
			}
		}
	}
	// Re-verify partition.
	seen := map[event.SnippetID]bool{}
	for _, id := range ids {
		for _, st := range id.Stories() {
			for _, sn := range st.Snippets {
				if seen[sn.ID] {
					t.Fatalf("snippet %d duplicated after moves", sn.ID)
				}
				seen[sn.ID] = true
				if id.StoryOf(sn.ID) != st.ID {
					t.Fatalf("assignment stale for %d", sn.ID)
				}
			}
		}
	}
	if len(seen) != len(snippets) {
		t.Fatalf("partition lost snippets: %d of %d", len(seen), len(snippets))
	}
}

func TestWindowAggregateCacheCorrectness(t *testing.T) {
	// The cached windowed score must match a freshly computed one for
	// query times within the same bucket, and refresh across buckets.
	cfg := DefaultConfig()
	cfg.RepairEvery = 0
	cfg.UseEntityIDF = false
	id := New("nyt", cfg, nil)
	base := time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		sn := &event.Snippet{
			ID: event.SnippetID(i + 1), Source: "nyt",
			Timestamp: base.Add(time.Duration(i) * 24 * time.Hour),
			Entities:  []event.Entity{"UKR"},
			Terms:     []event.Term{{Token: datagen.Word(i % 6), Weight: 1}},
		}
		sn.Normalize()
		id.Process(sn)
	}
	for _, st := range id.Stories() {
		probe := &event.Snippet{
			ID: 999, Source: "nyt", Timestamp: base.Add(10 * 24 * time.Hour),
			Entities: []event.Entity{"UKR"},
			Terms:    []event.Term{{Token: datagen.Word(1), Weight: 1}},
		}
		probe.Normalize()
		s1 := id.score(probe, st)
		s2 := id.score(probe, st) // cache hit
		if s1 != s2 {
			t.Fatalf("cached score %g != fresh %g", s2, s1)
		}
		// A probe in a far bucket must not reuse the stale aggregate: its
		// score against a story with no window content is 0.
		far := probe.Clone()
		far.Timestamp = base.Add(400 * 24 * time.Hour)
		if got := id.score(far, st); got != 0 {
			t.Fatalf("far probe scored %g against out-of-window story", got)
		}
	}
}
