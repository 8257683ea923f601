package qcache

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/event"
	"repro/internal/index"
)

// world is one live index with one story per entity, each at a version a
// publish can renew: the cache's view of a pipeline.
type world struct {
	x     *index.Index
	ents  []string
	vers  []uint64
	snips event.SnippetID
}

func newWorld(ents ...string) *world {
	w := &world{x: index.New(index.Options{}), ents: ents, vers: make([]uint64, len(ents))}
	for i := range w.vers {
		w.vers[i] = 1
	}
	w.publish()
	return w
}

// publish publishes every story at its current version.
func (w *world) publish() {
	res := &align.Result{}
	for i, ent := range w.ents {
		w.snips++
		st := event.NewStory(event.StoryID(i+1), "src")
		sn := &event.Snippet{
			ID:        w.snips,
			Source:    "src",
			Timestamp: time.Unix(int64(1000+i), 0),
			Entities:  []event.Entity{event.Entity(ent)},
		}
		sn.Intern()
		st.Add(sn)
		is := event.NewIntegratedStory(event.IntegratedID(i+1), []*event.Story{st})
		is.Version = w.vers[i]*uint64(len(w.ents)) + uint64(i)
		res.Integrated = append(res.Integrated, is)
	}
	w.x.Publish(res)
}

// renew publishes a new version of entity i's story.
func (w *world) renew(i int) {
	w.vers[i]++
	w.publish()
}

func (w *world) cache(cfg Config) *Cache {
	return New(cfg, func() *index.Index { return w.x })
}

// stamp returns the Stamp of a timeline query on ent.
func (w *world) stamp(ent string) index.Stamp {
	_, _, st := w.x.Timeline(event.Entity(ent), 0, 10)
	return st
}

// put caches an entry that depends on ent under key.
func (w *world) put(c *Cache, key, ent string) {
	c.Put(key, w.stamp(ent), []byte(key), ETagFor([]byte(key)))
}

func TestKeyDistinct(t *testing.T) {
	keys := map[string]bool{
		Key("search", "a b", 0, 10):    true,
		Key("search", "a", 0, 10):      true,
		Key("search", "a b", 10, 10):   true,
		Key("search", "a b", 0, 20):    true,
		Key("timeline", "a b", 0, 10):  true,
		Key("search", "a\x00b", 0, 10): true,
	}
	if len(keys) != 6 {
		t.Fatalf("key collisions: %d distinct of 6", len(keys))
	}
}

func TestETagFor(t *testing.T) {
	a := ETagFor([]byte(`{"x":1}`))
	b := ETagFor([]byte(`{"x":1}`))
	c := ETagFor([]byte(`{"x":2}`))
	if a != b {
		t.Fatalf("equal bodies, different tags: %s vs %s", a, b)
	}
	if a == c {
		t.Fatalf("different bodies, equal tags: %s", a)
	}
	if len(a) != 18 || a[0] != '"' || a[len(a)-1] != '"' {
		t.Fatalf("ETag not 16 quoted hex digits: %s", a)
	}
	if _, err := strconv.ParseUint(a[1:17], 16, 64); err != nil || strings.ToLower(a) != a {
		t.Fatalf("ETag not 16 quoted lower-case hex digits: %s", a)
	}

	// Flipping one byte anywhere in a body of a typical page's size
	// changes the tag, whatever the flip.
	body := make([]byte, 5<<10)
	for i := range body {
		body[i] = byte(' ' + i*7%95)
	}
	base := ETagFor(body)
	for i := range body {
		for _, mask := range []byte{0x01, 0x80, 0xff, byte(i) | 1} {
			body[i] ^= mask
			if tag := ETagFor(body); tag == base {
				t.Fatalf("flipping byte %d by %#x keeps the tag %s", i, mask, base)
			}
			body[i] ^= mask
		}
	}
	if ETagFor(body) != base {
		t.Fatal("restoring the body did not restore its tag")
	}
}

func TestHitMissAndTTL(t *testing.T) {
	w := newWorld("qc_ttl")
	c := w.cache(Config{TTL: time.Second, SweepInterval: -1})
	now := time.Unix(1000, 0)
	c.SetNow(func() time.Time { return now })

	key := Key("timeline", "qc_ttl", 0, 10)
	if _, _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, w.stamp("qc_ttl"), []byte("body"), `"etag"`)
	body, etag, ok := c.Get(key)
	if !ok || string(body) != "body" || etag != `"etag"` {
		t.Fatalf("Get = %q, %q, %v", body, etag, ok)
	}
	// TTL expiry.
	now = now.Add(2 * time.Second)
	if _, _, ok := c.Get(key); ok {
		t.Fatal("hit on expired entry")
	}
	if c.Len() != 0 {
		t.Fatalf("expired entry not dropped: len=%d", c.Len())
	}
}

func TestPublishInvalidatesOnlyDependents(t *testing.T) {
	w := newWorld("qc_dep_0", "qc_dep_1", "qc_dep_2")
	c := w.cache(Config{SweepInterval: -1})
	w.put(c, "k0", "qc_dep_0")
	w.put(c, "k1", "qc_dep_1")

	w.renew(0)

	if _, _, ok := c.Get("k0"); ok {
		t.Fatal("entry survived a publish that changed its entity's story")
	}
	if _, _, ok := c.Get("k1"); !ok {
		t.Fatal("unrelated entry was invalidated")
	}
	// An entry put after the publish is valid.
	w.put(c, "k2", "qc_dep_2")
	if _, _, ok := c.Get("k2"); !ok {
		t.Fatal("fresh entry invalid")
	}
}

func TestPublishBeforePutIsConservative(t *testing.T) {
	w := newWorld("qc_race")
	c := w.cache(Config{SweepInterval: -1})
	st := w.stamp("qc_race")
	// A publish lands between the query's read and its Put: the page
	// encodes the pre-publish index, so the entry must never be served.
	w.renew(0)
	c.Put("k", st, []byte("maybe stale"), `"t"`)
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("entry read before an overlapping publish was served")
	}
	if c.Len() != 0 {
		t.Fatal("known-stale entry was stored")
	}
}

// TestWildcardAndEpoch: a publish leaves an entry on another entity alone,
// while replacing the live index — a pipeline rebuild — is the wildcard
// that takes out every entry, whatever its symbols and epoch.
func TestWildcardAndEpoch(t *testing.T) {
	w := newWorld("qc_wild_0", "qc_wild_1")
	c := w.cache(Config{SweepInterval: -1})
	w.put(c, "narrow", "qc_wild_1")
	w.renew(0)
	if _, _, ok := c.Get("narrow"); !ok {
		t.Fatal("entry lost to a publish of a story it does not depend on")
	}
	old := w.x
	w.x = index.New(index.Options{})
	w.publish()
	if _, _, ok := c.Get("narrow"); ok {
		t.Fatal("entry survived the index it was read from")
	}
	_, _, st := old.Timeline("qc_wild_1", 0, 10)
	c.Put("late", st, []byte("late"), `"t"`)
	if c.Len() != 0 {
		t.Fatal("a page read from a swapped-out index was stored")
	}
}

func TestCapacityEviction(t *testing.T) {
	w := newWorld("qc_cap")
	c := w.cache(Config{Shards: 1, MaxEntries: 4, SweepInterval: -1})
	for i := 0; i < 20; i++ {
		w.put(c, Key("timeline", fmt.Sprintf("q%d", i), 0, 10), "qc_cap")
	}
	if n := c.Len(); n > 4 {
		t.Fatalf("cache over capacity: %d entries, cap 4", n)
	}
}

func TestSweepRemovesExpiredAndInvalid(t *testing.T) {
	w := newWorld("qc_sweep_0", "qc_sweep_1")
	c := w.cache(Config{TTL: time.Second, SweepInterval: -1})
	now := time.Unix(1000, 0)
	c.SetNow(func() time.Time { return now })

	w.put(c, "expired", "qc_sweep_0")
	w.put(c, "invalid", "qc_sweep_1")

	now = now.Add(2 * time.Second) // "expired" ages out
	w.renew(1)                     // "invalid" loses its story

	// Re-add a live entry after the publish.
	w.put(c, "live", "qc_sweep_1")

	c.sweep()
	if c.Len() != 1 {
		t.Fatalf("after sweep: %d entries, want 1 (live)", c.Len())
	}
	if _, _, ok := c.Get("live"); !ok {
		t.Fatal("live entry swept")
	}
}

func TestSweeperLifecycle(t *testing.T) {
	w := newWorld("qc_life")
	c := w.cache(Config{TTL: 10 * time.Millisecond, SweepInterval: 5 * time.Millisecond})
	w.put(c, "k", "qc_life")
	c.StartSweeper()
	c.StartSweeper() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for c.Len() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.Len() != 0 {
		t.Fatal("sweeper never removed the expired entry")
	}
	c.Close()
	c.Close()        // idempotent
	c.StartSweeper() // after Close: no-op, no panic
}

func TestConcurrentUse(t *testing.T) {
	ents := make([]string, 8)
	for i := range ents {
		ents[i] = fmt.Sprintf("qc_conc_%d", i)
	}
	w := newWorld(ents...)
	c := w.cache(Config{MaxEntries: 64, SweepInterval: -1})
	defer c.Close()
	var publisher sync.Mutex // world.renew is not safe for concurrent use
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ent := ents[g]
			for i := 0; i < 500; i++ {
				key := Key("timeline", ent, 0, 10)
				if body, _, ok := c.Get(key); ok {
					if string(body) != ent {
						t.Errorf("cross-tenant body: got %q want %q", body, ent)
					}
				} else {
					c.Put(key, w.stamp(ent), []byte(ent), `"t"`)
				}
				if i%50 == 0 {
					publisher.Lock()
					w.renew(g)
					publisher.Unlock()
				}
				if i%100 == 0 {
					c.sweep()
				}
			}
		}(g)
	}
	wg.Wait()
}
