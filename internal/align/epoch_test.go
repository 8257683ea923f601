package align

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/event"
	"repro/internal/identify"
)

// resultDigest chains a sha256 over one Result onto chain: every
// integrated ID with its member story IDs and Gens and the role of every
// member snippet, then every honoured match with the bits of its score.
// A kept integrated story whose members or roles went stale moves it.
func resultDigest(chain [sha256.Size]byte, res *Result) [sha256.Size]byte {
	h := sha256.New()
	h.Write(chain[:])
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(len(res.Integrated)))
	for _, is := range res.Integrated {
		word(uint64(is.ID))
		word(uint64(len(is.Members)))
		for _, m := range is.Members {
			word(uint64(m.ID))
			word(m.Gen())
			for _, sn := range m.Snippets {
				word(uint64(sn.ID))
				word(uint64(is.Roles[sn.ID]))
			}
		}
	}
	word(uint64(len(res.Matches)))
	for _, m := range res.Matches {
		word(uint64(m.A))
		word(uint64(m.B))
		word(math.Float64bits(m.Score))
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// TestAlignerUpsertOrderIndependent runs the schedule the stream engine
// runs — a round of upserts, then Result, again and again — on six
// aligners that each upsert every round in their own order. Every score
// reads the frozen statistics epoch, so the six must agree after every
// round. (Scored against the live entity counts, a pair's score depended
// on which stories of its round had been upserted before it.)
func TestAlignerUpsertOrderIndependent(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := datagen.DefaultConfig()
		cfg.Seed = seed
		cfg.Sources = 8
		cfg.Stories = 30
		cfg.EventsPerStory = 12
		c := datagen.Generate(cfg)
		var stories []*event.Story
		for _, sts := range identify.StoriesBySource(identify.RunAll(c.Snippets, identify.DefaultConfig(), nil)) {
			stories = append(stories, sts...)
		}
		sort.Slice(stories, func(i, j int) bool { return stories[i].ID < stories[j].ID })
		for _, k := range []int{7, 25} {
			t.Run(fmt.Sprintf("seed%d/k%d", seed, k), func(t *testing.T) {
				var want [sha256.Size]byte
				for i := 0; i < 6; i++ {
					rng := rand.New(rand.NewSource(int64(i)))
					a := NewAligner(DefaultConfig())
					var chain [sha256.Size]byte
					for lo := 0; lo < len(stories); lo += k {
						round := append([]*event.Story(nil), stories[lo:min(lo+k, len(stories))]...)
						if i > 0 {
							rng.Shuffle(len(round), func(x, y int) { round[x], round[y] = round[y], round[x] })
						}
						for _, st := range round {
							a.Upsert(st)
						}
						chain = resultDigest(chain, a.Result())
					}
					if i == 0 {
						want = chain
						t.Logf("%d stories, digest %x", len(stories), want)
					} else if chain != want {
						t.Fatalf("aligner %d settled differently: %x, ID-ordered aligner %x", i, chain, want)
					}
				}
			})
		}
	}
}

// adjSets returns the candidate lists as sorted copies, so two aligners
// (or one aligner before and after a re-upsert, which reorders the
// lists) compare by the pairs they hold.
func adjSets(a *Aligner) map[event.StoryID][]event.StoryID {
	out := make(map[event.StoryID][]event.StoryID, len(a.adj))
	for id, nbrs := range a.adj {
		if len(nbrs) == 0 {
			continue
		}
		s := append([]event.StoryID(nil), nbrs...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		out[id] = s
	}
	return out
}

// freshTwin builds a new aligner from a's live stories, upserted in ID
// order, at a's frozen statistics epoch and drift reference.
func freshTwin(a *Aligner) *Aligner {
	b := NewAligner(a.cfg)
	b.frozen = slices.Clone(a.frozen)
	b.epochs, b.lastScored = a.epochs, a.lastScored
	ids := make([]event.StoryID, 0, len(a.stories))
	for id := range a.stories {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		b.Upsert(a.stories[id])
	}
	return b
}

// versionLog follows the results of one aligner. In each, no two
// integrated stories share a version, and every story that is not the same
// object as in the previous result has a version above all earlier ones.
type versionLog struct {
	prev map[*event.IntegratedStory]bool
	top  uint64
}

func (v *versionLog) check(res *Result) error {
	seen := make(map[uint64]bool, len(res.Integrated))
	top := v.top
	for _, is := range res.Integrated {
		if seen[is.Version] {
			return fmt.Errorf("two integrated stories at version %d", is.Version)
		}
		seen[is.Version] = true
		if !v.prev[is] && is.Version <= v.top {
			return fmt.Errorf("new integrated story %d at version %d, not above the earlier %d", is.ID, is.Version, v.top)
		}
		top = max(top, is.Version)
	}
	v.prev = make(map[*event.IntegratedStory]bool, len(res.Integrated))
	for _, is := range res.Integrated {
		v.prev[is] = true
	}
	v.top = top
	return nil
}

// result returns a.Result() once v has checked it.
func (v *versionLog) result(a *Aligner) (*Result, error) {
	res := a.Result()
	return res, v.check(res)
}

// checkResult compares a.Result() with the whole-corpus oracle over a and
// with a fresh aligner's Result at the same frozen epoch, and checks its
// versions against v.
func checkResult(a *Aligner, v *versionLog) error {
	res, err := v.result(a)
	if err != nil {
		return err
	}
	got := resultDigest([sha256.Size]byte{}, res)
	if ref := resultDigest([sha256.Size]byte{}, referenceResult(a)); got != ref {
		return fmt.Errorf("Result differs from the whole-corpus pass")
	}
	if twin := resultDigest([sha256.Size]byte{}, freshTwin(a).Result()); got != twin {
		return fmt.Errorf("Result differs from a fresh aligner's at the same epoch")
	}
	return nil
}

// TestAlignerPureFunctionQuick pins the invariant the engine's Gen-skip
// rests on, with IDF weighting on (the default). Under random Upsert /
// re-Upsert of a changed version / Remove / Result: re-upserting a
// resident story unchanged leaves edges, the candidate graph and Result
// as they were; at every step the edges equal those of a fresh aligner
// given the same live stories at the same frozen epoch; and after every
// step the incremental Result equals the whole-corpus pass and the fresh
// aligner's, with its versions in order (versionLog). A fixed schedule
// first crosses an epoch boundary between incremental passes.
func TestAlignerPureFunctionQuick(t *testing.T) {
	t.Run("epoch", func(t *testing.T) {
		bySource, _ := alignFixture(11)
		var pool []*event.Story
		for _, sts := range bySource {
			pool = append(pool, sts...)
		}
		sort.Slice(pool, func(i, j int) bool { return pool[i].ID < pool[j].ID })
		a := NewAligner(DefaultConfig())
		var versions versionLog
		// Half the pool, then a quarter of it removed, then the rest: the
		// mention total drifts past 20 % between passes that regroup only
		// what changed.
		var schedule []func()
		for _, st := range pool[:len(pool)/2] {
			schedule = append(schedule, func() { a.Upsert(st) })
		}
		for _, st := range pool[:len(pool)/4] {
			schedule = append(schedule, func() { a.Remove(st.ID) })
		}
		for _, st := range pool[len(pool)/2:] {
			schedule = append(schedule, func() { a.Upsert(halfStory(st)) })
		}
		epochs, partial := 0, 0
		for step, op := range schedule {
			op()
			before, regrouped := a.epochs, a.stats.Regrouped
			if err := checkResult(a, &versions); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if a.epochs != before {
				epochs++
			} else if a.stats.Regrouped-regrouped < a.Len() {
				partial++
			}
		}
		if epochs < 2 || partial == 0 {
			t.Fatalf("%d epochs started and %d passes regrouped part of the corpus: the schedule crosses no epoch between incremental passes", epochs, partial)
		}
	})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bySource, _ := alignFixture(rng.Int63n(500))
		var pool []*event.Story
		for _, sts := range bySource {
			pool = append(pool, sts...)
		}
		sort.Slice(pool, func(i, j int) bool { return pool[i].ID < pool[j].ID })
		a := NewAligner(DefaultConfig())
		var versions versionLog
		if a.storyCfg.EntityWeight == nil {
			t.Fatal("default config runs without IDF weighting: the test is vacuous")
		}
		for step := 0; step < 6*len(pool); step++ {
			st := pool[rng.Intn(len(pool))]
			switch op := rng.Intn(8); {
			case op == 0:
				a.Remove(st.ID)
			case op == 1:
				// A pass right after the last step's: nothing is touched.
				if err := checkResult(a, &versions); err != nil {
					t.Logf("seed %d step %d: %v", seed, step, err)
					return false
				}
			case op == 2 && len(a.stories) > 0:
				// Re-upsert a resident story at its unchanged Gen.
				var held *event.Story
				for _, p := range pool {
					if held = a.stories[p.ID]; held != nil {
						break
					}
				}
				res, err := versions.result(a)
				if err != nil {
					t.Logf("seed %d step %d: %v", seed, step, err)
					return false
				}
				before := resultDigest([sha256.Size]byte{}, res)
				edges, adj := make(map[[2]event.StoryID]float64, len(a.edges)), adjSets(a)
				for k, s := range a.edges {
					edges[k] = s
				}
				if !a.Holds(held.ID, held.Gen()) {
					t.Logf("seed %d step %d: Holds(%d, %d) = false for the resident version", seed, step, held.ID, held.Gen())
					return false
				}
				a.Upsert(held)
				if !reflect.DeepEqual(a.edges, edges) || !reflect.DeepEqual(adjSets(a), adj) {
					t.Logf("seed %d step %d: re-upserting story %d unchanged moved its edges or candidates", seed, step, held.ID)
					return false
				}
				res, err = versions.result(a)
				if err != nil {
					t.Logf("seed %d step %d: %v", seed, step, err)
					return false
				}
				if after := resultDigest([sha256.Size]byte{}, res); after != before {
					t.Logf("seed %d step %d: re-upserting story %d unchanged moved the Result", seed, step, held.ID)
					return false
				}
			case op < 5:
				st = halfStory(st)
				fallthrough
			default:
				a.Upsert(st)
			}
			if twin := freshTwin(a); !reflect.DeepEqual(a.edges, twin.edges) || !reflect.DeepEqual(adjSets(a), adjSets(twin)) {
				t.Logf("seed %d step %d: edges or candidates differ from a fresh aligner's at the same epoch", seed, step)
				return false
			}
			if err := checkResult(a, &versions); err != nil {
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

// TestIdleResultWithoutEntitiesRegroupsNothing runs the aligner over
// stories that mention no entity, so the live mention total is 0 at every
// freeze. The first pass starts an epoch; after that a pass regroups only
// what was upserted since the last one, and a pass with nothing upserted
// regroups and rescores nothing. (An aligner that read a frozen total of 0
// as "never frozen" started an epoch on every Result.)
func TestIdleResultWithoutEntitiesRegroupsNothing(t *testing.T) {
	a := NewAligner(DefaultConfig())
	for _, st := range []*event.Story{
		mkStory(1, "nyt", snip(1, "nyt", 1, nil, "crash", "plane"), snip(2, "nyt", 2, nil, "crash", "investig")),
		mkStory(2, "wsj", snip(11, "wsj", 1, nil, "crash", "plane"), snip(12, "wsj", 2, nil, "crash", "report")),
		mkStory(3, "nyt", snip(21, "nyt", 20, nil, "search", "antitrust")),
		mkStory(4, "nyt", snip(31, "nyt", 28, nil, "launch", "rocket")),
	} {
		a.Upsert(st)
	}
	pass := func() (regrouped, comparisons int) {
		before := a.Stats()
		a.Result()
		after := a.Stats()
		return after.Regrouped - before.Regrouped, after.Comparisons - before.Comparisons
	}
	if n, _ := pass(); n != 4 {
		t.Fatalf("the first pass regrouped %d stories, want all 4", n)
	}
	if a.epochs != 1 || a.live.Total() != 0 {
		t.Fatalf("%d epochs over a live mention total of %d, want 1 over 0", a.epochs, a.live.Total())
	}
	a.Upsert(mkStory(5, "wsj", snip(41, "wsj", 10, nil, "sanction", "report")))
	if n, _ := pass(); n != 1 {
		t.Fatalf("the pass after an isolated story arrived regrouped %d stories, want 1", n)
	}
	if n, c := pass(); n != 0 || c != 0 {
		t.Fatalf("an idle pass regrouped %d stories and rescored %d pairs, want 0 and 0", n, c)
	}
	if a.epochs != 1 {
		t.Fatalf("%d epochs started, want 1", a.epochs)
	}
}

// TestEpochRescoresOnlyEntitySharingPairs crosses several statistics
// epochs and requires each epoch's rescore to score exactly the candidate
// pairs, found by brute force, whose two stories share an entity counted
// in both: the entity term of any other pair is 0 under any weights, so
// its score cannot move. TestAlignerPureFunctionQuick checks that the
// edges kept this way equal a fresh aligner's at the same epoch.
func TestEpochRescoresOnlyEntitySharingPairs(t *testing.T) {
	a := NewAligner(DefaultConfig())
	// brute returns the candidate pairs over the resident stories that
	// share a counted entity, and those that do not.
	brute := func() (sharing, disjoint int) {
		for _, x := range a.stories {
			for _, y := range a.stories {
				if x.ID >= y.ID || x.Source == y.Source || !x.Overlaps(y, a.cfg.Slack) {
					continue
				}
				counted := map[uint32]bool{}
				for _, ec := range x.EntityFreq {
					counted[ec.ID] = ec.N > 0
				}
				shares := false
				for _, ec := range y.EntityFreq {
					shares = shares || (ec.N > 0 && counted[ec.ID])
				}
				if shares {
					sharing++
				} else {
					disjoint++
				}
			}
		}
		return sharing, disjoint
	}
	epochs, rescored, kept := 0, 0, 0
	feedEpochRounds(epochPool(), a.Upsert, a.Remove, func(step int) {
		t.Helper()
		before, comparisons := a.epochs, a.stats.Comparisons
		a.Result()
		if a.epochs == before {
			return
		}
		sharing, disjoint := brute()
		if got := a.stats.Comparisons - comparisons; got != sharing {
			t.Fatalf("step %d: the epoch rescored %d pairs, %d candidate pairs share an entity (%d do not)", step, got, sharing, disjoint)
		}
		epochs++
		rescored += sharing
		kept += disjoint
	})
	t.Logf("%d epochs rescored %d entity-sharing pairs and kept %d disjoint ones", epochs, rescored, kept)
	if epochs < 3 || rescored == 0 || kept == 0 {
		t.Fatalf("%d epochs, %d pairs rescored, %d kept: the schedule does not exercise both kinds of pair", epochs, rescored, kept)
	}
}

// epochPool returns the stories identified from a six-source corpus,
// ascending by ID.
func epochPool() []*event.Story {
	cfg := datagen.DefaultConfig()
	cfg.Seed, cfg.Sources, cfg.Stories, cfg.EventsPerStory = 3, 6, 20, 8
	var pool []*event.Story
	for _, sts := range identify.StoriesBySource(identify.RunAll(datagen.Generate(cfg).Snippets, identify.DefaultConfig(), nil)) {
		pool = append(pool, sts...)
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].ID < pool[j].ID })
	return pool
}

// feedEpochRounds upserts half the pool, removes a quarter of it, then
// upserts the rest, calling settle after every fifth step of each phase
// and at the end: the mention total drifts past 20 % again and again.
func feedEpochRounds(pool []*event.Story, upsert func(*event.Story), remove func(event.StoryID), settle func(step int)) {
	for i, st := range pool[:len(pool)/2] {
		upsert(st)
		if i%5 == 4 {
			settle(i)
		}
	}
	for i, st := range pool[:len(pool)/4] {
		remove(st.ID)
		if i%5 == 4 {
			settle(i)
		}
	}
	for i, st := range pool[len(pool)/2:] {
		upsert(st)
		if i%5 == 4 {
			settle(i)
		}
	}
	settle(len(pool))
}

// TestEpochRescoreIndependentOfProcs feeds two aligners the rounds of
// TestEpochRescoresOnlyEntitySharingPairs, one settling under
// GOMAXPROCS 1 (an epoch rescores on the calling goroutine alone) and one
// under GOMAXPROCS 4 (an epoch of more than rescorePerWorker stories
// splits its pairs among workers), and requires the same edges, bit for
// bit, the same counters, matches and integrated stories after every
// Result. Under -race it also checks the workers only read the aligner.
func TestEpochRescoreIndependentOfProcs(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	serial, parallel := NewAligner(DefaultConfig()), NewAligner(DefaultConfig())
	integrated := func(res *Result) [][2]uint64 {
		var out [][2]uint64
		for _, is := range res.Integrated {
			out = append(out, [2]uint64{uint64(is.ID), is.Version})
		}
		return out
	}
	split := 0 // epochs the parallel aligner split among workers
	feedEpochRounds(epochPool(),
		func(st *event.Story) { serial.Upsert(st); parallel.Upsert(st) },
		func(id event.StoryID) { serial.Remove(id); parallel.Remove(id) },
		func(step int) {
			runtime.GOMAXPROCS(1)
			want := serial.Result()
			runtime.GOMAXPROCS(4)
			before := parallel.epochs
			got := parallel.Result()
			if parallel.epochs > before && len(parallel.order) > rescorePerWorker {
				split++
			}
			if len(parallel.edges) != len(serial.edges) {
				t.Fatalf("step %d: %d edges under 4 procs, %d under 1", step, len(parallel.edges), len(serial.edges))
			}
			for k, s := range serial.edges {
				if p, ok := parallel.edges[k]; !ok || math.Float64bits(p) != math.Float64bits(s) {
					t.Fatalf("step %d: edge %v scores %v under 4 procs (present %v), %v under 1", step, k, p, ok, s)
				}
			}
			if parallel.stats != serial.stats {
				t.Fatalf("step %d: stats %+v under 4 procs, %+v under 1", step, parallel.stats, serial.stats)
			}
			if !reflect.DeepEqual(got.Matches, want.Matches) || !reflect.DeepEqual(integrated(got), integrated(want)) ||
				resultDigest([sha256.Size]byte{}, got) != resultDigest([sha256.Size]byte{}, want) {
				t.Fatalf("step %d: the results differ", step)
			}
		})
	t.Logf("%d epochs of more than %d stories", split, rescorePerWorker)
	if split < 3 {
		t.Fatalf("%d epochs of more than %d stories: the schedule does not split an epoch among workers", split, rescorePerWorker)
	}
}
