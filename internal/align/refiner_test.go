package align

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/event"
	"repro/internal/identify"
	"repro/internal/similarity"
	"repro/internal/vocab"
)

// scoreWithoutSelf is the reference's home score: the form Refine used
// before the Refiner built the reduced aggregates in its own scratch
// buffers, copying them into fresh slices on every call.
func scoreWithoutSelf(sn *event.Snippet, home *event.Story, cfg RefineConfig) float64 {
	if home.Len() <= 1 {
		return 0
	}
	sn.EnsureInterned()
	centroid := vocab.SubWeights(append([]vocab.IDWeight(nil), home.Centroid...), sn.TermIDs)
	ents := vocab.DecCounts(append([]vocab.IDCount(nil), home.EntityFreq...), sn.EntityIDs)
	ref := nearestOtherTime(home, sn)
	return similarity.SnippetStoryIDs(sn, ents, centroid, vocab.WeightNorm(centroid), ref,
		cfg.TemporalScale, cfg.Weights, nil)
}

// sameCorrections reports the first difference between two correction
// lists: IDs, order, and Gain to the bit.
func sameCorrections(got, want []Correction) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d corrections, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Snippet != w.Snippet || g.Source != w.Source || g.From != w.From || g.To != w.To ||
			math.Float64bits(g.Gain) != math.Float64bits(w.Gain) {
			return fmt.Errorf("correction %d = %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// sameMemo reports the first difference between the memo a persistent
// Refiner left and a fresh one's after a pass over the same result: the
// home stories at their Gens, their snippets with home scores to the bit,
// and each snippet's targets in fold order with scores to the bit. A
// support verdict is compared where the fresh one searched for it; the
// persistent one may hold a verdict an earlier pass needed.
func sameMemo(got, want *Refiner) error {
	if len(got.homes) != len(want.homes) {
		return fmt.Errorf("%d home stories, want %d", len(got.homes), len(want.homes))
	}
	for i, wh := range want.homes {
		gh := got.homes[i]
		if gh.id != wh.id || gh.gen != wh.gen || gh.n != wh.n {
			return fmt.Errorf("home %d = story %d@%d with %d snippets, want %d@%d with %d", i, gh.id, gh.gen, gh.n, wh.id, wh.gen, wh.n)
		}
		for k := int32(0); k < wh.n; k++ {
			gs, ws := got.snips[gh.lo+k], want.snips[wh.lo+k]
			if gs.id != ws.id || math.Float64bits(gs.homeScore) != math.Float64bits(ws.homeScore) || gs.n != ws.n {
				return fmt.Errorf("story %d snippet %d = %d (home score %v, %d targets), want %d (%v, %d)",
					wh.id, k, gs.id, gs.homeScore, gs.n, ws.id, ws.homeScore, ws.n)
			}
			for x := int32(0); x < ws.n; x++ {
				gt, wt := got.targets[gs.lo+x], want.targets[ws.lo+x]
				if gt.to != wt.to || gt.ver != wt.ver || math.Float64bits(gt.score) != math.Float64bits(wt.score) ||
					(wt.support != 0 && gt.support != wt.support) {
					return fmt.Errorf("snippet %d target %d = %+v, want %+v", ws.id, x, gt, wt)
				}
			}
		}
	}
	return nil
}

// acceptAll returns an accepting mover for every source of res.
func acceptAll(res *Result) map[event.SourceID]Mover {
	movers := map[event.SourceID]Mover{}
	for _, is := range res.Integrated {
		for _, m := range is.Members {
			movers[m.Source] = acceptingMover{}
		}
	}
	return movers
}

// memberLists maps each multi-source integrated story of res to its
// ordered member (ID, Gen) list.
func memberLists(res *Result) map[event.IntegratedID]string {
	out := map[event.IntegratedID]string{}
	for _, is := range res.MultiSource() {
		s := ""
		for _, m := range is.Members {
			s += fmt.Sprintf("%d@%d ", m.ID, m.Gen())
		}
		out[is.ID] = s
	}
	return out
}

// refinerStream is a story set under random edits: every edit stores a
// new version of a story built from its latest one, so (ID, Gen) always
// names one content, as it does in the stream engine.
type refinerStream struct {
	rng      *rand.Rand
	a        *Aligner
	latest   map[event.StoryID]*event.Story
	ids      []event.StoryID // every story ID, sorted
	resident map[event.StoryID]bool
	spare    map[event.SourceID][]*event.Snippet // snippets taken out of every story

	// How often step swapped a snippet and trimmed an extent.
	swaps, trims int
}

func newRefinerStream(seed int64) *refinerStream {
	rng := rand.New(rand.NewSource(seed))
	cfg := datagen.DefaultConfig()
	cfg.Seed = seed
	cfg.Sources = 3 + rng.Intn(3)
	cfg.Stories = 6 + rng.Intn(4)
	cfg.EventsPerStory = 8
	c := datagen.Generate(cfg)
	s := &refinerStream{
		rng:      rng,
		a:        NewAligner(DefaultConfig()),
		latest:   map[event.StoryID]*event.Story{},
		resident: map[event.StoryID]bool{},
		spare:    map[event.SourceID][]*event.Snippet{},
	}
	for _, sts := range identify.StoriesBySource(identify.RunAll(c.Snippets, identify.DefaultConfig(), nil)) {
		for _, st := range sts {
			s.latest[st.ID] = st
			s.ids = append(s.ids, st.ID)
		}
	}
	sort.Slice(s.ids, func(i, j int) bool { return s.ids[i] < s.ids[j] })
	return s
}

// pick returns a random story ID satisfying ok, or 0.
func (s *refinerStream) pick(ok func(*event.Story) bool) event.StoryID {
	for _, k := range s.rng.Perm(len(s.ids)) {
		if id := s.ids[k]; ok(s.latest[id]) {
			return id
		}
	}
	return 0
}

func (s *refinerStream) upsert(st *event.Story) {
	s.latest[st.ID] = st
	s.resident[st.ID] = true
	s.a.Upsert(st)
}

// edit takes one snippet out of a resident story, or puts a spare one of
// its source back into it.
func (s *refinerStream) edit(id event.StoryID) {
	st := s.latest[id].Snapshot()
	if spare := s.spare[st.Source]; len(spare) > 0 && (st.Len() < 2 || s.rng.Intn(2) == 0) {
		st.Add(spare[len(spare)-1])
		s.spare[st.Source] = spare[:len(spare)-1]
	} else if st.Len() >= 2 {
		sn := st.Snippets[s.rng.Intn(st.Len())]
		st.Remove(sn.ID)
		s.spare[st.Source] = append(s.spare[st.Source], sn)
	} else {
		return
	}
	s.upsert(st)
}

// swap takes one snippet out of a resident story and puts a spare one of
// its source in, so the story's Gen changes and its length does not.
func (s *refinerStream) swap(id event.StoryID) {
	st := s.latest[id].Snapshot()
	spare := s.spare[st.Source]
	if len(spare) == 0 || st.Len() == 0 {
		return
	}
	in, out := spare[len(spare)-1], st.Snippets[s.rng.Intn(st.Len())]
	st.Remove(out.ID)
	st.Add(in)
	s.spare[st.Source] = append(spare[:len(spare)-1], out)
	s.upsert(st)
	s.swaps++
}

// trim takes the earliest or the latest snippet of a multi-source
// integrated story out of the member that holds it, so the integrated
// story comes back at a new version whose extent may no longer reach a
// home story the old one reached.
func (s *refinerStream) trim() {
	multi := s.a.Result().MultiSource()
	if len(multi) == 0 {
		return
	}
	is := multi[s.rng.Intn(len(multi))]
	start, end := is.Extent()
	late := s.rng.Intn(2) == 0
	for _, k := range s.rng.Perm(len(is.Members)) {
		st := s.latest[is.Members[k].ID].Snapshot()
		if st.Len() < 2 {
			continue
		}
		sn, edge := st.Snippets[0], start
		if late {
			sn, edge = st.Snippets[st.Len()-1], end
		}
		if sn.Timestamp.Equal(edge) {
			st.Remove(sn.ID)
			s.spare[st.Source] = append(s.spare[st.Source], sn)
			s.upsert(st)
			s.trims++
			return
		}
	}
}

// step applies one random operation: upsert a story that is not
// resident, edit a resident one, swap a snippet of one, move a snippet
// between two resident stories of one source, trim a multi-source
// integrated story's extent, or remove a story.
func (s *refinerStream) step() {
	residentOK := func(st *event.Story) bool { return s.resident[st.ID] }
	switch s.rng.Intn(8) {
	case 0, 1:
		if id := s.pick(func(st *event.Story) bool { return !s.resident[st.ID] && st.Len() > 0 }); id != 0 {
			s.upsert(s.latest[id])
		}
	case 2:
		if id := s.pick(residentOK); id != 0 {
			s.edit(id)
		}
	case 3, 4:
		from := s.pick(func(st *event.Story) bool { return s.resident[st.ID] && st.Len() >= 2 })
		if from == 0 {
			return
		}
		src := s.latest[from].Source
		to := s.pick(func(st *event.Story) bool { return s.resident[st.ID] && st.Source == src && st.ID != from })
		if to == 0 {
			return
		}
		a, b := s.latest[from].Snapshot(), s.latest[to].Snapshot()
		sn := a.Snippets[s.rng.Intn(a.Len())]
		a.Remove(sn.ID)
		b.Add(sn)
		s.upsert(a)
		s.upsert(b)
	case 5:
		if id := s.pick(residentOK); id != 0 {
			s.a.Remove(id)
			s.resident[id] = false
		}
	case 6:
		if id := s.pick(residentOK); id != 0 {
			s.swap(id)
		}
	case 7:
		s.trim()
	}
}

// TestRefinerMatchesOneShotQuick drives one persistent Refiner through a
// random stream of story upserts, edits, snippet swaps, snippet moves,
// extent trims and removals with IDF weighting on, and requires every
// pass to return exactly the corrections of a fresh Refiner on the same
// result. Right after the first pass it edits members of two multi-source
// integrated stories, so several integrated stories get new member lists
// in one pass while every snippet holds a memo. A swap changes a home
// story's Gen but not its length, and a trim moves a re-versioned
// integrated story's extent off home stories it reached: a home story
// carried on either would keep a stale plan. So after every pass the
// persistent Refiner's memo must equal the fresh one's too, which shows a
// stale carried target even where it does not win.
func TestRefinerMatchesOneShotQuick(t *testing.T) {
	cfg := DefaultRefineConfig()
	passes, fired, crowded, swaps, trims := 0, 0, 0, 0, 0
	carried := metRefineHomesCarried.Value()
	f := func(seed int64) bool {
		s := newRefinerStream(seed)
		defer func() { swaps, trims = swaps+s.swaps, trims+s.trims }()
		for _, id := range s.ids {
			if s.rng.Intn(3) > 0 {
				s.upsert(s.latest[id])
			}
		}
		r := NewRefiner(cfg)
		var prev map[event.IntegratedID]string
		for round := 0; round < 12; round++ {
			if round == 1 {
				multi := s.a.Result().MultiSource()
				s.rng.Shuffle(len(multi), func(i, j int) { multi[i], multi[j] = multi[j], multi[i] })
				for _, is := range multi[:min(2, len(multi))] {
					s.edit(is.Members[s.rng.Intn(len(is.Members))].ID)
				}
			} else if round > 1 {
				for n := 1 + s.rng.Intn(6); n > 0; n-- {
					s.step()
				}
			}
			res := s.a.Result()
			lists, changed := memberLists(res), 0
			for id, l := range lists {
				if prev[id] != l {
					changed++
				}
			}
			if round > 0 && changed >= 2 {
				crowded++
			}
			prev = lists
			movers := acceptAll(res)
			fresh := NewRefiner(cfg)
			want := fresh.Refine(res, movers)
			if err := sameCorrections(r.Refine(res, movers), want); err != nil {
				t.Logf("seed %d round %d: persistent Refiner differs from a fresh one: %v", seed, round, err)
				return false
			}
			if err := sameMemo(r, fresh); err != nil {
				t.Logf("seed %d round %d: persistent Refiner's memo differs from a fresh one's: %v", seed, round, err)
				return false
			}
			passes++
			fired += len(want)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	carried = metRefineHomesCarried.Value() - carried
	t.Logf("%d passes, %d corrections, %d passes with >= 2 new multi-source integrated stories, %d swaps, %d trims, %d home stories carried",
		passes, fired, crowded, swaps, trims, carried)
	if fired == 0 || crowded == 0 || swaps == 0 || trims == 0 || carried == 0 {
		t.Fatal("no pass moved a snippet, none renewed two multi-source integrated stories, no swap or trim ran, or no home story was carried: the comparison is vacuous")
	}
}

// TestRefinerHomeScoreAllocs pins the home score to the reference's bits
// and, once the Refiner's scratch buffers have grown, to zero allocations:
// a settle computes it for every snippet of every changed home story.
func TestRefinerHomeScoreAllocs(t *testing.T) {
	cfg := DefaultRefineConfig()
	res := refineFixture(1, 3)
	r := NewRefiner(cfg)
	var big *event.Story
	for _, is := range res.Integrated {
		for _, home := range is.Members {
			if big == nil || home.Len() > big.Len() {
				big = home
			}
			for _, sn := range home.Snippets {
				got, want := r.scoreWithoutSelf(sn, home), scoreWithoutSelf(sn, home, cfg)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("snippet %d in story %d: home score %v, reference %v", sn.ID, home.ID, got, want)
				}
			}
		}
	}
	if big.Len() < 2 {
		t.Fatal("fixture has no story of two snippets")
	}
	sn := big.Snippets[big.Len()/2]
	if allocs := testing.AllocsPerRun(100, func() { r.scoreWithoutSelf(sn, big) }); allocs != 0 {
		t.Fatalf("home score: %v allocs/op with warm buffers, want 0", allocs)
	}
}

// refineWork counts the snippet-story scores a pass over next needs when
// the last pass saw prev: a home score for every snippet of a home story
// whose (ID, Gen) is new, and a candidate score per same-source member of
// each multi-source integrated story M in a snippet's reach, unless the
// snippet's home held it in prev, prev had a multi-source integrated
// story of M's ID with the same members of the snippet's source, and the
// snippet lay in that story's reach too. With prev nil it is the count of
// a pass from scratch. Home stories of the sources in skip are left out.
func refineWork(prev, next *Result, cfg RefineConfig, skip ...event.SourceID) int {
	held := map[event.StoryID]*event.Story{}
	olds := map[event.IntegratedID]*event.IntegratedStory{}
	if prev != nil {
		for _, is := range prev.Integrated {
			for _, m := range is.Members {
				held[m.ID] = m
			}
		}
		for _, is := range prev.MultiSource() {
			olds[is.ID] = is
		}
	}
	inReach := func(sn *event.Snippet, m *event.IntegratedStory) bool {
		start, end := m.Extent()
		return !sn.Timestamp.Before(start.Add(-cfg.SupportScale)) && !sn.Timestamp.After(end.Add(cfg.SupportScale))
	}
	work := 0
	for _, is := range next.Integrated {
		for _, home := range is.Members {
			if slices.Contains(skip, home.Source) {
				continue
			}
			old := held[home.ID]
			for _, sn := range home.Snippets {
				known := false
				if old != nil {
					for _, o := range old.Snippets {
						known = known || o.ID == sn.ID
					}
				}
				if old == nil || old.Gen() != home.Gen() {
					work++
				}
				for _, m := range next.MultiSource() {
					if !inReach(sn, m) {
						continue
					}
					if o := olds[m.ID]; known && o != nil && inReach(sn, o) &&
						sourceMembers(o, home.Source) == sourceMembers(m, home.Source) {
						continue
					}
					for _, cand := range m.Members {
						if cand.Source == home.Source && cand.ID != home.ID {
							work++
						}
					}
				}
			}
		}
	}
	return work
}

// walkBound counts the home stories of next that a pass after one over
// prev may walk, and all of next's home stories: a home story is walked
// unless prev held it at the same (ID, Gen) and no multi-source
// integrated story that is new in next, at a new version or dropped
// reaches its snippets with its widened extent in either result.
func walkBound(prev, next *Result, cfg RefineConfig) (walk, homes int) {
	held := map[event.StoryID]uint64{}
	for _, is := range prev.Integrated {
		for _, m := range is.Members {
			held[m.ID] = m.Gen()
		}
	}
	olds, news := map[event.IntegratedID]*event.IntegratedStory{}, map[event.IntegratedID]*event.IntegratedStory{}
	for _, is := range prev.MultiSource() {
		olds[is.ID] = is
	}
	for _, is := range next.MultiSource() {
		news[is.ID] = is
	}
	var changed []*event.IntegratedStory
	for id, is := range news {
		if o := olds[id]; o == nil || o.Version != is.Version {
			changed = append(changed, is)
			if o != nil {
				changed = append(changed, o)
			}
		}
	}
	for id, o := range olds {
		if news[id] == nil {
			changed = append(changed, o)
		}
	}
	reached := func(home *event.Story) bool {
		first, last := home.Snippets[0].Timestamp, home.Snippets[home.Len()-1].Timestamp
		for _, is := range changed {
			start, end := is.Extent()
			if !first.After(end.Add(cfg.SupportScale)) && !last.Before(start.Add(-cfg.SupportScale)) {
				return true
			}
		}
		return false
	}
	for _, is := range next.Integrated {
		for _, home := range is.Members {
			if home.Len() == 0 {
				continue
			}
			homes++
			if gen, ok := held[home.ID]; !ok || gen != home.Gen() || reached(home) {
				walk++
			}
		}
	}
	return walk, homes
}

// sourceMembers lists the (ID, Gen) of is's members of source src, in
// member order.
func sourceMembers(is *event.IntegratedStory, src event.SourceID) string {
	s := ""
	for _, m := range is.Members {
		if m.Source == src {
			s += fmt.Sprintf("%d@%d ", m.ID, m.Gen())
		}
	}
	return s
}

// TestRefinerScoresOnlyWhatChanged reads storypivot_refine_scores_total
// and storypivot_refine_homes_walked_total: a pass over an unchanged
// result scores nothing and walks no home story, and after one story
// gains one snippet a pass scores only the snippets of changed home
// stories and, against the integrated stories that changed, only the
// snippets of the grown story's source or new to the changed stories'
// reach — far fewer than a pass from scratch — and walks only the home
// stories that changed or that a changed integrated story reaches, far
// fewer than all. After a member of a multi-source integrated story
// grows, the snippets of the other sources score nothing at all.
func TestRefinerScoresOnlyWhatChanged(t *testing.T) {
	cfg := DefaultRefineConfig()
	bySource := identify.StoriesBySource(identify.RunAll(func() []*event.Snippet {
		c := datagen.DefaultConfig()
		c.Seed, c.Sources, c.Stories, c.EventsPerStory = 1, 8, 12, 10
		return datagen.Generate(c).Snippets
	}(), identify.DefaultConfig(), nil))
	a := NewAligner(DefaultConfig())
	var maxID event.SnippetID
	for _, sts := range bySource {
		for _, st := range sts {
			a.Upsert(st)
			for _, sn := range st.Snippets {
				maxID = max(maxID, sn.ID)
			}
		}
	}
	grow := func(st *event.Story) *event.Story {
		grown := st.Snapshot()
		sn := grown.Snippets[grown.Len()-1].Clone()
		maxID++
		sn.ID = maxID
		grown.Add(sn)
		return grown
	}
	res := a.Result()
	movers := acceptAll(res)
	// others follows the same results as r; its last pass below plans the
	// home stories of every source but the grown one.
	r, others := NewRefiner(cfg), NewRefiner(cfg)
	var walked int
	pass := func(r *Refiner, res *Result, movers map[event.SourceID]Mover) int {
		before, homes := metRefineScores.Value(), metRefineHomesWalked.Value()
		r.Refine(res, movers)
		walked = int(metRefineHomesWalked.Value() - homes)
		return int(metRefineScores.Value() - before)
	}
	both := func(res *Result) int {
		pass(others, res, movers)
		return pass(r, res, movers)
	}
	if got, want := both(res), refineWork(nil, res, cfg); got != want {
		t.Fatalf("first pass scored %d, a pass from scratch needs %d", got, want)
	}
	if got := both(res); got != 0 || walked != 0 {
		t.Fatalf("a second pass over the same result scored %d and walked %d home stories, want 0 and 0", got, walked)
	}
	if got := both(a.Result()); got != 0 || walked != 0 {
		t.Fatalf("a pass over an unchanged recomputed result scored %d and walked %d home stories, want 0 and 0", got, walked)
	}

	// One story of a multi-source integrated story gains one snippet.
	multi := res.MultiSource()
	if len(multi) == 0 {
		t.Fatal("fixture has no multi-source integrated story")
	}
	a.Upsert(grow(multi[0].Members[0]))
	next := a.Result()
	bound, scratch := refineWork(res, next, cfg), refineWork(nil, next, cfg)
	walkMax, homes := walkBound(res, next, cfg)
	got := both(next)
	t.Logf("after one snippet: %d scores, bound %d, a pass from scratch %d; %d of %d home stories walked, bound %d",
		got, bound, scratch, walked, homes, walkMax)
	if got == 0 || got > bound {
		t.Fatalf("pass after one added snippet scored %d, want 1..%d", got, bound)
	}
	if 4*bound > scratch {
		t.Fatalf("bound %d is not well below a pass from scratch (%d): the fixture changed too much", bound, scratch)
	}
	if walked == 0 || walked > walkMax {
		t.Fatalf("pass after one added snippet walked %d home stories, want 1..%d", walked, walkMax)
	}
	if 3*walked > homes {
		t.Fatalf("pass after one added snippet walked %d of %d home stories, want at most a third", walked, homes)
	}

	// A member of the multi-source integrated story with the most
	// candidate scores of other sources' snippets grows. Those scores are
	// what a target kept per version would redo.
	var m *event.IntegratedStory
	var member *event.Story
	stale := 0
	for _, is := range next.MultiSource() {
		for _, mem := range is.Members {
			if n := candidateScores(is, next, mem.Source, cfg); n > stale {
				m, member, stale = is, mem, n
			}
		}
	}
	if m == nil {
		t.Fatal("no multi-source integrated story has candidates for another source's snippets")
	}
	a.Upsert(grow(member))
	last := a.Result()
	after := last.IntegratedOf(member.ID)
	if after == nil || after.ID != m.ID || sourceMembers(after, member.Source) == sourceMembers(m, member.Source) {
		t.Fatalf("integrated story %d regrouped when member %d grew: the fixture changed too much", m.ID, member.ID)
	}
	for src := range movers {
		if src != member.Source && sourceMembers(after, src) != sourceMembers(m, src) {
			t.Fatalf("integrated story %d's members of source %s changed when member %d grew", m.ID, src, member.ID)
		}
	}
	if n := refineWork(next, last, cfg, member.Source); n != 0 {
		t.Fatalf("the bound has %d scores of other sources' snippets after story %d grew, want 0", n, member.ID)
	}
	rest := map[event.SourceID]Mover{}
	for src, mv := range movers {
		if src != member.Source {
			rest[src] = mv
		}
	}
	if got := pass(others, last, rest); got != 0 {
		t.Fatalf("after story %d of source %s grew, the other sources' snippets scored %d, want 0 (a target kept per version would score %d)",
			member.ID, member.Source, got, stale)
	}
	bound = refineWork(next, last, cfg)
	walkMax, homes = walkBound(next, last, cfg)
	got = pass(r, last, movers)
	t.Logf("after story %d grew: %d scores, bound %d; the other sources' snippets scored 0 instead of %d; %d of %d home stories walked, bound %d",
		member.ID, got, bound, stale, walked, homes, walkMax)
	if got == 0 || got > bound {
		t.Fatalf("pass after story %d grew scored %d, want 1..%d", member.ID, got, bound)
	}
	if walked == 0 || walked > walkMax {
		t.Fatalf("pass after story %d grew walked %d home stories, want 1..%d", member.ID, walked, walkMax)
	}
}

// candidateScores counts the candidate scores of is's members for the
// snippets in its reach of res's home stories not of source skip.
func candidateScores(is *event.IntegratedStory, res *Result, skip event.SourceID, cfg RefineConfig) int {
	start, end := is.Extent()
	n := 0
	for _, h := range res.Integrated {
		for _, home := range h.Members {
			if home.Source == skip {
				continue
			}
			for _, sn := range home.Snippets {
				if sn.Timestamp.Before(start.Add(-cfg.SupportScale)) || sn.Timestamp.After(end.Add(cfg.SupportScale)) {
					continue
				}
				for _, cand := range is.Members {
					if cand.Source == home.Source && cand.ID != home.ID {
						n++
					}
				}
			}
		}
	}
	return n
}

// refusingMover declines every move, so a pass changes nothing and the
// next pass sees the same result.
type refusingMover struct{}

func (refusingMover) Move(event.SnippetID, event.StoryID) bool { return false }

// TestWarmRefinerAllocsIndependentOfCorpus pins the cost of the memo: a
// Refiner pass over an unchanged result, which carries every home story,
// writes its memo into the buffers of the pass before last, so once two
// passes have run the allocation count of a pass does not grow with the
// number of snippets planned.
func TestWarmRefinerAllocsIndependentOfCorpus(t *testing.T) {
	allocs := func(stories int) (float64, int) {
		cfg := datagen.DefaultConfig()
		cfg.Sources, cfg.Stories = 8, stories
		c := datagen.Generate(cfg)
		ids := identify.RunAll(c.Snippets, identify.DefaultConfig(), nil)
		a := NewAligner(DefaultConfig())
		movers := map[event.SourceID]Mover{}
		for _, src := range c.Sources {
			for _, st := range ids[src].Stories() {
				a.Upsert(st)
			}
			movers[src] = refusingMover{}
		}
		res := a.Result()
		r := NewRefiner(DefaultRefineConfig())
		r.Refine(res, movers)
		r.Refine(res, movers)
		return testing.AllocsPerRun(20, func() { r.Refine(res, movers) }), len(r.snips)
	}
	small, nSmall := allocs(20)
	large, nLarge := allocs(80)
	if small != large {
		t.Fatalf("a warm Refiner pass allocates %v times over %d snippets and %v over %d", small, nSmall, large, nLarge)
	}
	t.Logf("a warm Refiner pass allocates %v times over %d and over %d snippets", small, nSmall, nLarge)
}
