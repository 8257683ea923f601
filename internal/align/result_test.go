package align

import (
	"crypto/sha256"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/event"
	"repro/internal/identify"
	"repro/internal/vocab"
)

// TestIdleResultAllocsIndependentOfCorpus pins the cost of a pass with
// nothing touched: the allocation count of Result must not grow with the
// number of resident stories (no per-story lookup built per Result).
func TestIdleResultAllocsIndependentOfCorpus(t *testing.T) {
	allocs := func(stories int) (float64, int) {
		cfg := datagen.DefaultConfig()
		cfg.Sources, cfg.Stories = 8, stories
		c := datagen.Generate(cfg)
		ids := identify.RunAll(c.Snippets, identify.DefaultConfig(), nil)
		a := NewAligner(DefaultConfig())
		for _, src := range c.Sources {
			for _, st := range ids[src].Stories() {
				a.Upsert(st)
			}
		}
		a.Result()
		return testing.AllocsPerRun(20, func() { a.Result() }), a.Len()
	}
	small, nSmall := allocs(40)
	large, nLarge := allocs(160)
	if small != large {
		t.Fatalf("an idle Result allocates %v times over %d stories and %v over %d", small, nSmall, large, nLarge)
	}
	t.Logf("an idle Result allocates %v times over %d and over %d stories", small, nSmall, nLarge)
}

// TestResultRegroupsOnlyWhatChanged reads Stats.Regrouped over two
// aligned pairs (MH17 and Google, one story of each in each source): a
// pass with nothing upserted regroups nothing and returns the same
// integrated stories; an isolated new story regroups itself alone; a
// re-upserted member of a pair regroups that pair only, and a story whose
// members are the same pointers comes back as the same integrated story,
// at the same Version, even so. Results already returned never change.
func TestResultRegroupsOnlyWhatChanged(t *testing.T) {
	fix := twoSourceFixture()
	googNyt := mkStory(4, "nyt", snip(31, "nyt", 18, []event.Entity{"GOOG", "YELP"}, "search", "antitrust", "content"))
	a := NewAligner(DefaultConfig())
	for _, st := range []*event.Story{fix["nyt"][0], fix["wsj"][0], fix["wsj"][1], googNyt} {
		a.Upsert(st)
	}
	regrouped := func() int {
		before := a.stats.Regrouped
		a.Result()
		return a.stats.Regrouped - before
	}
	if n := regrouped(); n != 4 {
		t.Fatalf("first pass regrouped %d stories, want all 4", n)
	}
	if len(a.edges) != 2 {
		t.Fatalf("fixture has match edges %v, want the two pairs only", a.edges)
	}
	var published []*Result
	var digests [][sha256.Size]byte
	// versions holds the Version each integrated story first came with, and
	// top the largest of them.
	versions := map[*event.IntegratedStory]uint64{}
	var top uint64
	result := func() *Result {
		t.Helper()
		res := a.Result()
		published = append(published, res)
		digests = append(digests, resultDigest([sha256.Size]byte{}, res))
		for _, is := range res.Integrated {
			if v, ok := versions[is]; ok && v != is.Version {
				t.Fatalf("kept integrated story %d went from version %d to %d", is.ID, v, is.Version)
			} else if !ok {
				versions[is] = is.Version
				top = max(top, is.Version)
			}
		}
		return res
	}
	r1 := result()
	if len(r1.MultiSource()) != 2 {
		t.Fatalf("%d multi-source integrated stories, want 2", len(r1.MultiSource()))
	}
	same := func(prev, res *Result, ids ...event.StoryID) {
		t.Helper()
		for _, id := range ids {
			if res.IntegratedOf(id) != prev.IntegratedOf(id) {
				t.Fatalf("story %d's integrated story was rebuilt", id)
			}
		}
	}

	if n := regrouped(); n != 0 {
		t.Fatalf("a pass with nothing upserted regrouped %d stories", n)
	}
	r2 := result()
	if !slices.Equal(r2.Integrated, r1.Integrated) || &r2.Integrated[0] == &r1.Integrated[0] {
		t.Fatal("an unchanged pass must return the same integrated stories in a slice of its own")
	}

	far := snip(41, "nyt", 1, []event.Entity{"NASA"}, "launch")
	far.Timestamp = time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC)
	a.Upsert(mkStory(5, "nyt", far))
	if n := regrouped(); n != 1 {
		t.Fatalf("upserting an isolated story regrouped %d stories, want 1", n)
	}
	r3 := result()
	same(r1, r3, 1, 2, 3, 4)

	// The same pointer again: the pair is regrouped, its integrated story kept.
	a.Upsert(fix["wsj"][0])
	if n := regrouped(); n != 2 {
		t.Fatalf("re-upserting a member of a pair regrouped %d stories, want the pair's 2", n)
	}
	same(r3, result(), 1, 2, 3, 4, 5)

	// A new version of the member: only the pair's integrated story is new.
	// The snapshot is at the same Gen, but the aligner compares member
	// pointers, so the story takes a new version anyway: the conservative
	// case of the version contract.
	a.Upsert(fix["wsj"][0].Snapshot())
	if n := regrouped(); n != 2 {
		t.Fatalf("upserting a new version of a pair member regrouped %d stories, want 2", n)
	}
	before := top
	r5 := result()
	same(r3, r5, 3, 4, 5)
	if is := r5.IntegratedOf(2); is == r1.IntegratedOf(2) || len(is.Members) != 2 || is.Roles[11] != event.RoleAligning {
		t.Fatalf("the re-upserted pair's integrated story: %v, roles %v", is, is.Roles)
	}
	if v := r5.IntegratedOf(2).Version; v <= before {
		t.Fatalf("the pair rebuilt on a same-Gen snapshot has version %d, want above every earlier one (%d)", v, before)
	}

	for i, res := range published {
		if resultDigest([sha256.Size]byte{}, res) != digests[i] {
			t.Fatalf("result %d changed after later passes", i)
		}
	}
}

// referenceResult is the whole-corpus alignment pass Result replaced, kept
// as its oracle: union-find over every story, the reciprocal-best filter
// over every edge, the guarded merge in score order, and a new integrated
// story with freshly classified roles for every group. It reads a without
// changing it, so call it after a.Result(), which has started any epoch
// that was due.
func referenceResult(a *Aligner) *Result {
	// Union-find over story IDs with per-root component aggregates.
	parent := make(map[event.StoryID]event.StoryID, len(a.stories))
	comps := make(map[event.StoryID]*component, len(a.stories))
	var find func(event.StoryID) event.StoryID
	find = func(x event.StoryID) event.StoryID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for id, st := range a.stories {
		parent[id] = id
		comps[id] = newComponent(st)
	}
	recip := a.reciprocalEdges()
	// Strongest matches first, so the guard evaluates high-confidence
	// merges before aggregates drift.
	order := make([]Match, 0, len(recip))
	for k, s := range recip {
		order = append(order, Match{A: k[0], B: k[1], Score: s})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].Score != order[j].Score {
			return order[i].Score > order[j].Score
		}
		if order[i].A != order[j].A {
			return order[i].A < order[j].A
		}
		return order[i].B < order[j].B
	})
	for _, m := range order {
		ra, rb := find(m.A), find(m.B)
		if ra == rb {
			continue
		}
		ca, cb := comps[ra], comps[rb]
		if a.cfg.ComponentGuard > 0 && !a.componentsSimilar(ca, cb) {
			continue
		}
		// Absorb the smaller aggregate into the larger.
		if len(cb.centroid) > len(ca.centroid) {
			ra, rb = rb, ra
			ca, cb = cb, ca
		}
		ca.absorb(cb)
		parent[rb] = ra
		delete(comps, rb)
	}
	groups := make(map[event.StoryID][]*event.Story)
	for _, id := range a.order {
		r := find(id)
		groups[r] = append(groups[r], a.stories[id])
	}
	roots := make([]event.StoryID, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool {
		return minStoryID(groups[roots[i]]) < minStoryID(groups[roots[j]])
	})
	// Report the reciprocal matches the integration actually honoured
	// (both endpoints ended up in the same component).
	matches := make([]Match, 0, len(order))
	for _, m := range order {
		if find(m.A) == find(m.B) {
			matches = append(matches, m)
		}
	}
	res := &Result{Matches: matches}
	for _, r := range roots {
		is := event.NewIntegratedStory(event.IntegratedID(minStoryID(groups[r])), groups[r])
		classifyRoles(is, a.cfg)
		res.Integrated = append(res.Integrated, is)
	}
	return res
}

func newComponent(st *event.Story) *component {
	return &component{
		members:  1,
		ents:     append([]vocab.IDCount(nil), st.EntityFreq...),
		centroid: append([]vocab.IDWeight(nil), st.Centroid...),
		start:    st.Start,
		end:      st.End,
	}
}

// reciprocalEdges filters the raw above-threshold edges down to
// reciprocal best matches: an edge (A, B) survives only if B is A's
// highest-scoring match in B's source and vice versa.
func (a *Aligner) reciprocalEdges() map[[2]event.StoryID]float64 {
	type slot struct {
		other event.StoryID
		score float64
	}
	best := make(map[event.StoryID]map[event.SourceID]slot, len(a.stories))
	note := func(self, other event.StoryID, score float64) {
		osrc := a.stories[other].Source
		m := best[self]
		if m == nil {
			m = make(map[event.SourceID]slot)
			best[self] = m
		}
		cur, ok := m[osrc]
		if !ok || score > cur.score || (score == cur.score && other < cur.other) {
			m[osrc] = slot{other, score}
		}
	}
	for k, s := range a.edges {
		note(k[0], k[1], s)
		note(k[1], k[0], s)
	}
	out := make(map[[2]event.StoryID]float64)
	for k, s := range a.edges {
		x, y := k[0], k[1]
		if best[x][a.stories[y].Source].other == y && best[y][a.stories[x].Source].other == x {
			out[k] = s
		}
	}
	return out
}
