package align

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/event"
	"repro/internal/identify"
)

// Property-based invariants of story alignment:
//
//  1. Coverage: every input story appears in exactly one integrated story.
//  2. Cross-source-only matches: no match edge joins same-source stories.
//  3. Idempotence: Result() twice yields the same partition.
//  4. Role totality: every snippet of every integrated story has a role.

func alignFixture(seed int64) (map[event.SourceID][]*event.Story, int) {
	cfg := datagen.DefaultConfig()
	cfg.Seed = seed
	cfg.Sources = 2 + int(seed%3)
	cfg.Stories = 4 + int(seed%4)
	cfg.EventsPerStory = 5
	c := datagen.Generate(cfg)
	ids := identify.RunAll(c.Snippets, identify.DefaultConfig(), nil)
	bySource := identify.StoriesBySource(ids)
	total := 0
	for _, sts := range bySource {
		total += len(sts)
	}
	return bySource, total
}

func TestAlignInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		bySource, totalStories := alignFixture(seed % 500)
		res := Align(bySource, DefaultConfig())

		// 1. Coverage.
		seen := map[event.StoryID]bool{}
		members := 0
		for _, is := range res.Integrated {
			for _, m := range is.Members {
				if seen[m.ID] {
					t.Logf("seed %d: story %d in two integrated stories", seed, m.ID)
					return false
				}
				seen[m.ID] = true
				members++
			}
			// 4. Role totality.
			for _, sn := range is.Snippets() {
				if is.Roles[sn.ID] == event.RoleUnknown {
					t.Logf("seed %d: snippet %d without role", seed, sn.ID)
					return false
				}
			}
		}
		if members != totalStories {
			t.Logf("seed %d: %d of %d stories covered", seed, members, totalStories)
			return false
		}
		// 2. Cross-source-only matches.
		storySource := map[event.StoryID]event.SourceID{}
		for src, sts := range bySource {
			for _, st := range sts {
				storySource[st.ID] = src
			}
		}
		for _, m := range res.Matches {
			if storySource[m.A] == storySource[m.B] {
				t.Logf("seed %d: same-source match %v", seed, m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestAlignIdempotent(t *testing.T) {
	bySource, _ := alignFixture(7)
	a := NewAligner(DefaultConfig())
	for _, sts := range bySource {
		for _, st := range sts {
			a.Upsert(st)
		}
	}
	r1 := a.Result()
	r2 := a.Result()
	f := eval.Pairwise(eval.FromIntegrated(r1.Integrated), eval.FromIntegrated(r2.Integrated))
	if f.F1 != 1 {
		t.Fatalf("Result not idempotent: agreement F1 = %.3f", f.F1)
	}
	if len(r1.Integrated) != len(r2.Integrated) {
		t.Fatalf("component counts differ: %d vs %d", len(r1.Integrated), len(r2.Integrated))
	}
}

func TestAlignUpsertPermutationInvariant(t *testing.T) {
	// The integrated partition must not depend on upsert order.
	bySource, _ := alignFixture(13)
	var all []*event.Story
	for _, sts := range bySource {
		all = append(all, sts...)
	}
	run := func(order []int) eval.Assignment {
		a := NewAligner(DefaultConfig())
		for _, i := range order {
			a.Upsert(all[i])
		}
		return eval.FromIntegrated(a.Result().Integrated)
	}
	fwd := make([]int, len(all))
	rev := make([]int, len(all))
	for i := range all {
		fwd[i] = i
		rev[i] = len(all) - 1 - i
	}
	f := eval.Pairwise(run(fwd), run(rev))
	if f.F1 != 1 {
		t.Fatalf("upsert order changed the partition: agreement F1 = %.3f", f.F1)
	}
}

// halfStory returns st cut down to its first half, a stand-in for an
// earlier version of the story: a different extent, so a re-upsert moves
// it between time buckets.
func halfStory(st *event.Story) *event.Story {
	h := event.NewStory(st.ID, st.Source)
	for _, sn := range st.Snippets[:(st.Len()+1)/2] {
		h.Add(sn)
	}
	return h
}

// checkAlignerStructure compares the aligner's candidate graph with the
// brute-force one over the stories that should be live, and its
// RetirableSets with a reference computed from that brute-force graph.
func checkAlignerStructure(a *Aligner, live map[event.StoryID]*event.Story) error {
	if len(a.stories) != len(live) {
		return fmt.Errorf("%d stories resident, want %d", len(a.stories), len(live))
	}
	want := map[[2]event.StoryID]bool{}
	for x, sx := range live {
		if a.stories[x] != sx {
			return fmt.Errorf("story %d: resident version is not the last one upserted", x)
		}
		for y, sy := range live {
			if x < y && sx.Source != sy.Source && sx.Overlaps(sy, a.cfg.Slack) {
				want[[2]event.StoryID{x, y}] = true
			}
		}
	}
	pairs := 0
	for id, nbrs := range a.adj {
		if live[id] == nil && len(nbrs) > 0 {
			return fmt.Errorf("removed story %d keeps candidates %v", id, nbrs)
		}
		seen := map[event.StoryID]bool{}
		for _, o := range nbrs {
			switch {
			case live[o] == nil:
				return fmt.Errorf("story %d lists removed story %d", id, o)
			case o == id || live[o].Source == live[id].Source:
				return fmt.Errorf("story %d lists %d of its own source", id, o)
			case seen[o]:
				return fmt.Errorf("story %d lists %d twice", id, o)
			case !want[edgeKey(id, o)]:
				return fmt.Errorf("pair (%d, %d) is no brute-force candidate", id, o)
			}
			seen[o] = true
			back := 0
			for _, x := range a.adj[o] {
				if x == id {
					back++
				}
			}
			if back != 1 {
				return fmt.Errorf("story %d lists %d, which lists it back %d times", id, o, back)
			}
			pairs++
		}
	}
	if pairs != 2*len(want) {
		return fmt.Errorf("%d candidate pairs listed, brute force finds %d", pairs/2, len(want))
	}
	for k := range a.edges {
		if !want[k] {
			return fmt.Errorf("edge %v is not a candidate pair", k)
		}
	}

	// Retirement reference: flood the brute-force graph, without the
	// inert pairs (both ends cold, no match edge), from every story in
	// insertion order; a flooded set is retirable when all of it is cold
	// and none of it ends within the pad of a warm story of its source.
	var ends []time.Time
	for _, st := range live {
		ends = append(ends, st.End)
	}
	if len(ends) == 0 {
		return nil
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	pivot := ends[len(ends)/2]
	cold := func(st *event.Story) bool { return st.End.Before(pivot) }
	for _, pad := range []time.Duration{-1, 48 * time.Hour} {
		var ref [][]*event.Story
		done := map[event.StoryID]bool{}
		for _, root := range a.order {
			if live[root] == nil || done[root] {
				continue
			}
			done[root] = true
			set := map[event.StoryID]bool{root: true}
			for queue := []event.StoryID{root}; len(queue) > 0; queue = queue[1:] {
				x := queue[0]
				for k := range want {
					y := k[0] + k[1] - x
					if (k[0] != x && k[1] != x) || set[y] {
						continue
					}
					if _, matched := a.edges[k]; !matched && cold(live[x]) && cold(live[y]) {
						continue
					}
					set[y] = true
					queue = append(queue, y)
				}
			}
			retirable := true
			var members []*event.Story
			for _, id := range a.order {
				if !set[id] || done[id] && id != root {
					continue
				}
				done[id] = true
				st := live[id]
				members = append(members, st)
				retirable = retirable && cold(st)
				for _, w := range live {
					if pad >= 0 && w.Source == st.Source && !cold(w) && !st.End.Add(pad).Before(w.Start) {
						retirable = false
					}
				}
			}
			if retirable {
				ref = append(ref, members)
			}
		}
		if got := a.RetirableSets(cold, pad); !reflect.DeepEqual(got, ref) {
			return fmt.Errorf("RetirableSets(pad %v) = %v, reference %v", pad, got, ref)
		}
	}
	return nil
}

// TestAlignerStructureQuick drives the aligner the way the stream engine
// does — upserts, re-upserts of changed stories and removals with
// Result() called in between — and checks the candidate graph after
// every step.
func TestAlignerStructureQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bySource, _ := alignFixture(rng.Int63n(500))
		var pool []*event.Story
		for _, sts := range bySource {
			pool = append(pool, sts...)
		}
		sort.Slice(pool, func(i, j int) bool { return pool[i].ID < pool[j].ID })
		a := NewAligner(DefaultConfig())
		live := map[event.StoryID]*event.Story{}
		for step := 0; step < 6*len(pool); step++ {
			st := pool[rng.Intn(len(pool))]
			switch op := rng.Intn(8); {
			case op == 0:
				a.Remove(st.ID)
				delete(live, st.ID)
			case op == 1:
				members := 0
				for _, is := range a.Result().Integrated {
					members += len(is.Members)
				}
				if members != len(live) {
					t.Logf("seed %d step %d: Result holds %d members of %d live stories", seed, step, members, len(live))
					return false
				}
			case op < 4:
				st = halfStory(st)
				fallthrough
			default:
				a.Upsert(st)
				live[st.ID] = st
			}
			if err := checkAlignerStructure(a, live); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
