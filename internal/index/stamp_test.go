package index

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/event"
)

// symbol is one stamped (kind, vocab ID) pair.
type symbol struct {
	kind byte // 'e' entity, 't' term
	id   uint32
}

type symbols map[symbol]bool

// storySymbols returns the entity and term symbols of every member of is.
func storySymbols(is *event.IntegratedStory) symbols {
	out := symbols{}
	for _, m := range is.Members {
		for _, ec := range m.EntityFreq {
			out[symbol{'e', ec.ID}] = true
		}
		for _, tw := range m.Centroid {
			out[symbol{'t', tw.ID}] = true
		}
	}
	return out
}

// stamped returns the symbols the last publish stamped.
func stamped(x *Index) symbols {
	out := symbols{}
	for kind, t := range map[byte]*stampTable{'e': &x.entStamps, 't': &x.termStamps} {
		sp := t.spine.Load()
		if sp == nil {
			continue
		}
		for c, chunk := range *sp {
			if chunk == nil {
				continue
			}
			for i := range chunk {
				if chunk[i].Load() == x.epoch.Load() {
					out[symbol{kind, uint32(c<<stampChunkBits + i)}] = true
				}
			}
		}
	}
	return out
}

// fingerprintOracle is the cache invalidator the version walk replaced,
// kept as the oracle of what a publish must stamp: it fingerprints each
// member's integrated story as a commutative hash over (memberID, Gen) of
// all members and remembers, per member, the symbols of the integrated
// story it belonged to. A member whose fingerprint moved changes the
// symbols of its old and its new integrated story; a member that
// vanished changes those of its old one.
type fingerprintOracle struct {
	members map[event.StoryID]memberState
	live    map[event.StoryID]bool // scratch, reused across publishes
}

type memberState struct {
	intKey uint64
	syms   symbols
}

func (o *fingerprintOracle) changes(res *align.Result) symbols {
	acc := symbols{}
	clear(o.live)
	for _, is := range res.Integrated {
		var sum, xor uint64
		for _, m := range is.Members {
			h := mix(uint64(m.ID)*0x9E3779B97F4A7C15 ^ m.Gen())
			sum += h
			xor ^= h
		}
		intKey := mix(sum ^ (xor * 0xD6E8FEB86659FD93))
		syms := storySymbols(is)
		for _, m := range is.Members {
			o.live[m.ID] = true
			old, seen := o.members[m.ID]
			switch {
			case !seen:
				maps.Copy(acc, syms)
			case old.intKey != intKey:
				maps.Copy(acc, old.syms)
				maps.Copy(acc, syms)
			}
			o.members[m.ID] = memberState{intKey: intKey, syms: syms}
		}
	}
	for id, st := range o.members {
		if !o.live[id] {
			maps.Copy(acc, st.syms)
			delete(o.members, id)
		}
	}
	return acc
}

// mix is splitmix64's finalizer: it spreads structured (ID, Gen) pairs
// over the hash space before the commutative sum/xor combine.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// pairedStamps publishes every result to the index and to the oracle and
// keeps the first publish whose symbol sets differ.
//
// The index may stamp one kind of extra symbol, the conservative case of
// the version contract: an integrated story published under a new version
// although its members are the ones of the last publish. The engine's
// Gen-skip never hands the aligner a new snapshot at the same Gen, but a
// settle can drop such a story in one of its Results and build it again
// from the same members in the next; the oracle sees the same (ID, Gen)
// list and changes nothing. Those stories' symbols are added to the
// oracle's set, and the two must then be equal.
type pairedStamps struct {
	x    *Index
	want *fingerprintOracle
	prev map[event.IntegratedID]*event.IntegratedStory // the last publish

	publishes, renewed, gone, rebuilt int
	err                               error
}

func (p *pairedStamps) Publish(res *align.Result) {
	p.publishes++
	p.x.Publish(res)
	got, want := stamped(p.x), p.want.changes(res)
	next := make(map[event.IntegratedID]*event.IntegratedStory, len(res.Integrated))
	for _, is := range res.Integrated {
		next[is.ID] = is
		old, ok := p.prev[is.ID]
		if !ok || old.Version == is.Version {
			continue
		}
		p.renewed++
		if slices.Equal(old.Members, is.Members) {
			p.rebuilt++
			maps.Copy(want, storySymbols(is))
		}
	}
	for id := range p.prev {
		if _, ok := next[id]; !ok {
			p.gone++
		}
	}
	p.prev = next
	if p.err == nil && !maps.Equal(got, want) {
		common := 0
		for s := range got {
			if want[s] {
				common++
			}
		}
		p.err = fmt.Errorf("publish %d: the index stamps %d symbols, the fingerprint oracle %d (%d in common)",
			p.publishes, len(got), len(want), common)
	}
}

// TestStampsMatchFingerprintOracle requires the symbols each publish
// stamps to equal the fingerprint oracle's, exactly, after every publish
// of the oracle stream (refinement on, retirement, a source removed
// mid-stream).
func TestStampsMatchFingerprintOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := &pairedStamps{x: New(Options{}), want: &fingerprintOracle{
				members: make(map[event.StoryID]memberState),
				live:    make(map[event.StoryID]bool),
			}}
			snippets, retired := oracleStream(t, seed, p, func() error { return p.err })
			t.Logf("%d snippets, %d publishes, %d integrated IDs renewed (%d with the same members), %d gone, %d stories retired",
				snippets, p.publishes, p.renewed, p.rebuilt, p.gone, retired)
			if p.renewed == 0 || p.gone == 0 || retired == 0 {
				t.Fatal("no ID was renewed, none went or nothing retired: the comparison is vacuous")
			}
		})
	}
}

// The publish-delta cases, one integrated story per scenario. They read
// the stamps through what the cache asks: whether a query's Stamp is
// still Current.

func mkStory(id event.StoryID, src event.SourceID, snID event.SnippetID, entity, term string) *event.Story {
	st := event.NewStory(id, src)
	st.Add(mkSnippet(snID, src, entity, term))
	return st
}

func mkSnippet(id event.SnippetID, src event.SourceID, entity, term string) *event.Snippet {
	s := &event.Snippet{
		ID:        id,
		Source:    src,
		Timestamp: time.Unix(int64(1000+id), 0),
		Entities:  []event.Entity{event.Entity(entity)},
		Terms:     []event.Term{{Token: term, Weight: 1}},
	}
	s.Intern()
	return s
}

func result(iss ...*event.IntegratedStory) *align.Result {
	return &align.Result{Integrated: iss}
}

// integrated builds an integrated story at a version, as the aligner
// stamps it: a new member list always comes under a new version.
func integrated(id event.IntegratedID, ver uint64, members ...*event.Story) *event.IntegratedStory {
	is := event.NewIntegratedStory(id, members)
	is.Version = ver
	return is
}

// entityStamp returns the Stamp of a timeline query on ent.
func entityStamp(x *Index, ent string) Stamp {
	_, _, st := x.Timeline(event.Entity(ent), 0, 10)
	return st
}

func mustHold(t *testing.T, x *Index, st Stamp, why string) {
	t.Helper()
	if !x.Current(&st) {
		t.Fatalf("%s: the answer for %q/%q went stale", why, st.entity, st.terms)
	}
}

func mustBreak(t *testing.T, x *Index, st Stamp, why string) {
	t.Helper()
	if x.Current(&st) {
		t.Fatalf("%s: the answer for %q/%q still holds", why, st.entity, st.terms)
	}
}

func TestStampUnchangedPublishStampsNothing(t *testing.T) {
	x := New(Options{})
	a := mkStory(1, "s1", 1, "stamp_unchanged_a", "alpha")
	b := mkStory(2, "s2", 2, "stamp_unchanged_b", "beta")
	res := result(integrated(1, 1, a), integrated(2, 2, b))
	x.Publish(res)
	sa, sb := entityStamp(x, "stamp_unchanged_a"), entityStamp(x, "stamp_unchanged_b")

	// Re-publishing the identical result (same versions) stamps nothing.
	x.Publish(res)
	if got := stamped(x); len(got) != 0 {
		t.Fatalf("an unchanged publish stamped %d symbols", len(got))
	}
	mustHold(t, x, sa, "unchanged publish")
	mustHold(t, x, sb, "unchanged publish")
}

func TestStampGenChangeStampsOnlyItsStory(t *testing.T) {
	x := New(Options{})
	a := mkStory(1, "s1", 1, "stamp_gen_a", "alpha")
	b := mkStory(2, "s2", 2, "stamp_gen_b", "beta")
	x.Publish(result(integrated(1, 1, a), integrated(2, 2, b)))
	sa, sb := entityStamp(x, "stamp_gen_a"), entityStamp(x, "stamp_gen_b")
	sc := entityStamp(x, "stamp_gen_c") // an entity no story mentions

	// Story a gains a snippet (Gen advances): the aligner publishes the
	// new snapshot in a new version of its integrated story.
	a = a.Snapshot()
	a.Add(mkSnippet(3, "s1", "stamp_gen_a", "gamma"))
	x.Publish(result(integrated(1, 3, a), integrated(2, 2, b)))

	mustBreak(t, x, sa, "story a changed")
	mustHold(t, x, sb, "story b untouched")
	mustHold(t, x, sc, "entity never mentioned")
}

func TestStampMembershipChangeWithoutGenChange(t *testing.T) {
	// The "steal" scenario: story b moves from integrated story 2 into
	// 1. Neither a's nor b's own Gen changes, but pages naming either
	// component's entities are stale.
	x := New(Options{})
	a := mkStory(1, "s1", 1, "stamp_steal_a", "alpha")
	b := mkStory(2, "s2", 2, "stamp_steal_b", "beta")
	x.Publish(result(integrated(1, 1, a), integrated(2, 2, b)))
	sa, sb := entityStamp(x, "stamp_steal_a"), entityStamp(x, "stamp_steal_b")
	sc := entityStamp(x, "stamp_steal_c")

	// Same stories, same Gens — but now one merged component.
	x.Publish(result(integrated(1, 3, a, b)))

	mustBreak(t, x, sa, "a's component gained a member")
	mustBreak(t, x, sb, "b joined another component")
	mustHold(t, x, sc, "unrelated entity")
}

func TestStampRemoval(t *testing.T) {
	x := New(Options{})
	a := mkStory(1, "s1", 1, "stamp_removal_a", "alpha")
	b := mkStory(2, "s2", 2, "stamp_removal_b", "beta")
	x.Publish(result(integrated(1, 1, a), integrated(2, 2, b)))
	sa, sb := entityStamp(x, "stamp_removal_a"), entityStamp(x, "stamp_removal_b")

	// RemoveSource s1: story a vanishes from the next publish.
	x.Publish(result(integrated(2, 2, b)))

	mustBreak(t, x, sa, "a's source removed")
	mustHold(t, x, sb, "b untouched")
}

func TestStampManyStoriesScale(t *testing.T) {
	// Many integrated stories, repeated unchanged publishes, then one
	// mutation: walking old and new in step must stamp only that story.
	x := New(Options{})
	var iss []*event.IntegratedStory
	var stories []*event.Story
	for i := 0; i < 200; i++ {
		st := mkStory(event.StoryID(i+1), "src", event.SnippetID(i+1),
			fmt.Sprintf("bulk_entity_%d", i), fmt.Sprintf("bulkterm%d", i))
		stories = append(stories, st)
		iss = append(iss, integrated(event.IntegratedID(i+1), uint64(i+1), st))
	}
	x.Publish(result(iss...))
	s7, s8 := entityStamp(x, "bulk_entity_7"), entityStamp(x, "bulk_entity_8")
	for i := 0; i < 5; i++ {
		x.Publish(result(iss...))
	}
	mustHold(t, x, s7, "repeated unchanged publishes")

	st := stories[7].Snapshot()
	st.Add(mkSnippet(9999, "src", "bulk_entity_7", "fresh"))
	iss[7] = integrated(8, 201, st)
	x.Publish(result(iss...))
	mustBreak(t, x, s7, "story 7 mutated")
	mustHold(t, x, s8, "story 8 untouched")
}

// TestStampComparesVersionsOnly pins the version contract from both sides:
// a new version stamps its symbols even when its members are the same
// stories (the aligner renews a story whenever a member is a new
// snapshot, at the same Gen or not), and republishing the same versions
// in new objects stamps nothing.
func TestStampComparesVersionsOnly(t *testing.T) {
	x := New(Options{})
	a := mkStory(1, "s1", 1, "stamp_versions_a", "alpha")
	b := mkStory(2, "s2", 2, "stamp_versions_b", "beta")
	x.Publish(result(integrated(1, 1, a), integrated(2, 2, b)))

	x.Publish(result(integrated(1, 1, a), integrated(2, 2, b)))
	if got := stamped(x); len(got) != 0 {
		t.Fatalf("republishing the same versions stamped %d symbols", len(got))
	}
	renewed := integrated(2, 3, b.Snapshot())
	x.Publish(result(integrated(1, 1, a), renewed))
	if got, want := stamped(x), storySymbols(renewed); !maps.Equal(got, want) {
		t.Fatalf("a new version with unchanged content stamped %v, want b's %v", got, want)
	}
}

// TestStampResolvesTermsInternedLater: a search on a term no snippet has
// carried yet reads nothing and cannot name the term by vocab ID, yet its
// answer must go stale once a publish first brings a story with the term.
func TestStampResolvesTermsInternedLater(t *testing.T) {
	x := New(Options{})
	x.Publish(result(integrated(1, 1, mkStory(1, "s1", 1, "stamp_later_a", "alpha"))))
	const term = "stamplatertermzq"
	hits, total, st := x.Search(term, 0, 10)
	if len(hits) != 0 || total != 0 {
		t.Fatalf("search on an unseen term answered %d/%d", len(hits), total)
	}
	x.Publish(result(integrated(1, 1, mkStory(1, "s1", 1, "stamp_later_a", "alpha"))))
	mustHold(t, x, st, "a publish without the term")

	x.Publish(result(
		integrated(1, 1, mkStory(1, "s1", 1, "stamp_later_a", "alpha")),
		integrated(2, 2, mkStory(2, "s2", 2, "stamp_later_b", term))))
	mustBreak(t, x, st, "the term reached a published story")
	if _, total, _ := x.Search(term, 0, 10); total != 1 {
		t.Fatalf("search on the published term answered %d stories, want 1", total)
	}
}

// TestStampNamesItsIndex: an answer read from one index never holds on
// another, even at the same epoch over the same stories — the case of a
// pipeline rebuilt and swapped in.
func TestStampNamesItsIndex(t *testing.T) {
	res := result(integrated(1, 1, mkStory(1, "s1", 1, "stamp_index_a", "alpha")))
	x, y := New(Options{}), New(Options{})
	x.Publish(res)
	y.Publish(res)
	st := entityStamp(x, "stamp_index_a")
	mustHold(t, x, st, "the index that answered")
	mustBreak(t, y, st, "another index")
	mustBreak(t, x, Stamp{}, "the zero Stamp")
}
