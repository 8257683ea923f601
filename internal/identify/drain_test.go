package identify

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/event"
)

// TestIdentifierDrainMatchesGenDiff checks Drain against a walk of the
// whole story set: an ID→Gen snapshot of Stories() at each drain. Seeded random
// sequences of Process (repair every 4 snippets, so splits and merges
// fire), Move, Detach and Adopt drain at random points. Between two drains
// every story whose presence or Gen changed must be drained, and a drained
// story whose presence and Gen did not change must be absent at both
// (created and dropped in between). A detached story is adopted back only
// after a drain: the round trip restores the same story at the same Gen,
// which the snapshot cannot see.
func TestIdentifierDrainMatchesGenDiff(t *testing.T) {
	splits, merges := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		gen := datagen.DefaultConfig()
		gen.Seed = seed
		gen.Sources = 1
		gen.Coverage = 1
		gen.Stories = 8
		gen.EventsPerStory = 12
		snippets := datagen.Generate(gen).Snippets
		cfg := DefaultConfig()
		cfg.RepairEvery = 4
		id := New(snippets[0].Source, cfg, nil)
		rng := rand.New(rand.NewSource(seed))

		gens := func() map[event.StoryID]uint64 {
			m := make(map[event.StoryID]uint64)
			for _, st := range id.Stories() {
				if _, dup := m[st.ID]; dup {
					t.Fatalf("seed %d: Stories lists story %d twice", seed, st.ID)
				}
				m[st.ID] = st.Gen()
			}
			return m
		}
		before := gens()
		var parked, adoptable []*event.Story
		drain := func(step int) {
			drained := id.Drain()
			after := gens()
			if !slices.IsSorted(drained) || len(slices.Compact(slices.Clone(drained))) != len(drained) {
				t.Fatalf("seed %d step %d: Drain = %v, want ascending distinct IDs", seed, step, drained)
			}
			got := make(map[event.StoryID]bool, len(drained))
			for _, sid := range drained {
				got[sid] = true
			}
			for sid, g := range after {
				if g0, ok := before[sid]; (!ok || g0 != g) && !got[sid] {
					t.Fatalf("seed %d step %d: story %d created or changed but not drained", seed, step, sid)
				}
			}
			for sid := range before {
				if _, ok := after[sid]; !ok && !got[sid] {
					t.Fatalf("seed %d step %d: story %d dropped but not drained", seed, step, sid)
				}
			}
			for sid := range got {
				g0, inBefore := before[sid]
				g1, inAfter := after[sid]
				if inBefore && inAfter && g0 == g1 {
					t.Fatalf("seed %d step %d: story %d drained but unchanged", seed, step, sid)
				}
			}
			before = after
			adoptable = append(adoptable, parked...)
			parked = nil
		}
		for step, sn := range snippets {
			id.Process(sn)
			live := id.Stories()
			switch r := rng.Intn(10); {
			case r < 3 && len(live) > 1:
				from := live[rng.Intn(len(live))]
				to := live[rng.Intn(len(live))]
				id.Move(from.Snippets[rng.Intn(from.Len())].ID, to.ID)
			case r == 3 && len(live) > 1:
				parked = append(parked, id.Detach(live[rng.Intn(len(live))].ID))
			case r == 4 && len(adoptable) > 0:
				id.Adopt(adoptable[len(adoptable)-1])
				adoptable = adoptable[:len(adoptable)-1]
			}
			if rng.Intn(3) == 0 {
				drain(step)
			}
		}
		drain(len(snippets))
		splits += id.Stats().Splits
		merges += id.Stats().Merges
	}
	if splits == 0 || merges == 0 {
		t.Fatalf("repair never fired both ways (%d splits, %d merges): the oracle saw no repair", splits, merges)
	}
	t.Logf("%d splits, %d merges", splits, merges)
}
