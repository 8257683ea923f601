package qcache

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/event"
)

// mkStory builds a per-source story from one snippet carrying the
// given entity and term.
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

// putFor caches an entry depending on one entity and returns its key.
func putFor(c *Cache, ent string) string {
	key := Key("timeline", ent, 0, 10)
	var d Deps
	d.AddEntity(ent)
	c.Put(key, c.Begin(d), []byte(ent), ETagFor([]byte(ent)))
	return key
}

func mustHit(t *testing.T, c *Cache, key, why string) {
	t.Helper()
	if _, _, ok := c.Get(key); !ok {
		t.Fatalf("%s: entry for %q gone", why, key)
	}
}

func mustMiss(t *testing.T, c *Cache, key, why string) {
	t.Helper()
	if _, _, ok := c.Get(key); ok {
		t.Fatalf("%s: entry for %q still served", why, key)
	}
}

func TestSinkUnchangedPublishBumpsNothing(t *testing.T) {
	ents := distinctEntities(t, 2)
	c := New(Config{SweepInterval: -1})
	sink := NewSink(c)

	a := mkStory(1, "s1", 1, ents[0], "alpha")
	b := mkStory(2, "s2", 2, ents[1], "beta")
	res := result(integrated(1, 1, a), integrated(2, 2, b))
	sink.Publish(res) // first sight: bumps, cache still empty

	ka := putFor(c, ents[0])
	kb := putFor(c, ents[1])

	// Re-publishing the identical result (same versions) must leave both
	// entries alone.
	sink.Publish(res)
	mustHit(t, c, ka, "unchanged publish")
	mustHit(t, c, kb, "unchanged publish")
}

func TestSinkGenChangeInvalidatesOnlyTouchedGroups(t *testing.T) {
	ents := distinctEntities(t, 3)
	c := New(Config{SweepInterval: -1})
	sink := NewSink(c)

	a := mkStory(1, "s1", 1, ents[0], "alpha")
	b := mkStory(2, "s2", 2, ents[1], "beta")
	sink.Publish(result(integrated(1, 1, a), integrated(2, 2, b)))

	ka := putFor(c, ents[0])
	kb := putFor(c, ents[1])
	kc := putFor(c, ents[2]) // depends on an entity no story mentions

	// Story a gains a snippet (Gen advances): the aligner publishes the
	// new snapshot in a new version of its integrated story.
	a = a.Snapshot()
	a.Add(mkSnippet(3, "s1", ents[0], "gamma"))
	sink.Publish(result(integrated(1, 3, a), integrated(2, 2, b)))

	mustMiss(t, c, ka, "story a changed")
	mustHit(t, c, kb, "story b untouched")
	mustHit(t, c, kc, "entity never mentioned")
}

func TestSinkMembershipChangeWithoutGenChange(t *testing.T) {
	// The "steal" scenario: story b moves from integrated story Y into
	// X. Neither a's nor b's own Gen changes, but pages naming either
	// component's entities are stale.
	ents := distinctEntities(t, 3)
	c := New(Config{SweepInterval: -1})
	sink := NewSink(c)

	a := mkStory(1, "s1", 1, ents[0], "alpha")
	b := mkStory(2, "s2", 2, ents[1], "beta")
	sink.Publish(result(integrated(1, 1, a), integrated(2, 2, b)))

	ka := putFor(c, ents[0])
	kb := putFor(c, ents[1])
	kc := putFor(c, ents[2])

	// Same stories, same Gens — but now one merged component.
	sink.Publish(result(integrated(1, 3, a, b)))

	mustMiss(t, c, ka, "a's component gained a member")
	mustMiss(t, c, kb, "b joined another component")
	mustHit(t, c, kc, "unrelated entity")
}

func TestSinkRemovalInvalidates(t *testing.T) {
	ents := distinctEntities(t, 2)
	c := New(Config{SweepInterval: -1})
	sink := NewSink(c)

	a := mkStory(1, "s1", 1, ents[0], "alpha")
	b := mkStory(2, "s2", 2, ents[1], "beta")
	sink.Publish(result(integrated(1, 1, a), integrated(2, 2, b)))

	ka := putFor(c, ents[0])
	kb := putFor(c, ents[1])

	// RemoveSource s1: story a vanishes from the next publish.
	sink.Publish(result(integrated(2, 2, b)))

	mustMiss(t, c, ka, "a's source removed")
	mustHit(t, c, kb, "b untouched")
}

func TestSinkManyStoriesScale(t *testing.T) {
	// Sanity: many integrated stories, repeated unchanged publishes,
	// then one mutation — walking old and new in step must not degrade
	// correctness.
	c := New(Config{SweepInterval: -1})
	sink := NewSink(c)

	var iss []*event.IntegratedStory
	var stories []*event.Story
	for i := 0; i < 200; i++ {
		st := mkStory(event.StoryID(i+1), "src", event.SnippetID(i+1),
			fmt.Sprintf("bulk_entity_%d", i), fmt.Sprintf("bulkterm%d", i))
		stories = append(stories, st)
		iss = append(iss, integrated(event.IntegratedID(i+1), uint64(i+1), st))
	}
	sink.Publish(result(iss...))
	key := putFor(c, "bulk_entity_7")
	for i := 0; i < 5; i++ {
		sink.Publish(result(iss...))
	}
	mustHit(t, c, key, "repeated unchanged publishes")

	st := stories[7].Snapshot()
	st.Add(mkSnippet(9999, "src", "bulk_entity_7", "fresh"))
	iss[7] = integrated(8, 201, st)
	sink.Publish(result(iss...))
	mustMiss(t, c, key, "story 7 mutated")
}

// TestSinkComparesVersionsOnly pins the version contract from both sides:
// a new version bumps its groups even when its members are the same
// stories (the aligner renews a story whenever a member is a new
// snapshot, at the same Gen or not), and republishing the same versions
// in new objects bumps nothing.
func TestSinkComparesVersionsOnly(t *testing.T) {
	ents := distinctEntities(t, 2)
	sink := NewSink(New(Config{SweepInterval: -1}))
	a := mkStory(1, "s1", 1, ents[0], "alpha")
	b := mkStory(2, "s2", 2, ents[1], "beta")
	sink.changes(result(integrated(1, 1, a), integrated(2, 2, b)))

	if got := sink.changes(result(integrated(1, 1, a), integrated(2, 2, b))); got.Any() {
		t.Fatalf("republishing the same versions bumped %d groups", got.Count())
	}
	got := sink.changes(result(integrated(1, 1, a), integrated(2, 3, b.Snapshot())))
	var want Bits
	want.Set(groupOf(kindEntity, ents[1]))
	want.Set(groupOf(kindTerm, "beta"))
	if got != want {
		t.Fatalf("a new version with unchanged content bumped %d groups, want b's %d", got.Count(), want.Count())
	}
}
