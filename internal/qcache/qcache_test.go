package qcache

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// distinctEntities returns n entity names guaranteed to hash into n
// distinct invalidation groups, so tests can reason about cross-talk
// precisely.
func distinctEntities(t *testing.T, n int) []string {
	t.Helper()
	used := make(map[uint16]bool)
	var out []string
	for i := 0; len(out) < n && i < 10000; i++ {
		name := fmt.Sprintf("entity_%d", i)
		g := groupOf(kindEntity, name)
		if !used[g] {
			used[g] = true
			out = append(out, name)
		}
	}
	if len(out) < n {
		t.Fatalf("could not find %d group-distinct entities", n)
	}
	return out
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
	if a[0] != '"' || a[len(a)-1] != '"' {
		t.Fatalf("ETag not quoted: %s", a)
	}
}

func TestHitMissAndTTL(t *testing.T) {
	c := New(Config{TTL: time.Second, SweepInterval: -1})
	now := time.Unix(1000, 0)
	c.SetNow(func() time.Time { return now })

	key := Key("search", "q", 0, 10)
	if _, _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	var d Deps
	d.AddTerm("q")
	tok := c.Begin(d)
	c.Put(key, tok, []byte("body"), `"etag"`)
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

func TestBumpInvalidatesOnlyDependents(t *testing.T) {
	ents := distinctEntities(t, 3)
	c := New(Config{SweepInterval: -1})

	put := func(key, ent string) {
		var d Deps
		d.AddEntity(ent)
		c.Put(key, c.Begin(d), []byte(key), ETagFor([]byte(key)))
	}
	put("k0", ents[0])
	put("k1", ents[1])

	var hit Bits
	hit.Set(groupOf(kindEntity, ents[0]))
	c.Bump(hit)

	if _, _, ok := c.Get("k0"); ok {
		t.Fatal("entry survived a bump of its dependency group")
	}
	if _, _, ok := c.Get("k1"); !ok {
		t.Fatal("unrelated entry was invalidated")
	}
	// The third entity's group was never bumped: entries put BEFORE the
	// bump with that dep are still valid.
	put("k2", ents[2])
	if _, _, ok := c.Get("k2"); !ok {
		t.Fatal("fresh entry invalid")
	}
}

func TestBeginBeforeBumpIsConservative(t *testing.T) {
	ents := distinctEntities(t, 1)
	c := New(Config{SweepInterval: -1})
	var d Deps
	d.AddEntity(ents[0])
	tok := c.Begin(d)
	// A publish lands between Begin and Put: the computation may have
	// read the pre-publish index, so the entry must never be served.
	var b Bits
	b.Set(groupOf(kindEntity, ents[0]))
	c.Bump(b)
	c.Put("k", tok, []byte("maybe stale"), `"t"`)
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("entry computed before an overlapping bump was served")
	}
	if c.Len() != 0 {
		t.Fatal("known-stale entry was stored")
	}
}

func TestWildcardAndEpoch(t *testing.T) {
	ents := distinctEntities(t, 2)
	c := New(Config{SweepInterval: -1})

	// A narrow bump leaves an entry on another group alone; BumpAll is
	// the wildcard that takes it out regardless of its dependencies.
	var d Deps
	d.AddEntity(ents[1])
	c.Put("narrow", c.Begin(d), []byte("y"), `"t"`)
	var one Bits
	one.Set(groupOf(kindEntity, ents[0]))
	c.Bump(one)
	if _, _, ok := c.Get("narrow"); !ok {
		t.Fatal("entry lost to a bump of a group it does not depend on")
	}
	c.BumpAll()
	if _, _, ok := c.Get("narrow"); ok {
		t.Fatal("entry survived BumpAll")
	}
}

func TestWideBumpUsesEpoch(t *testing.T) {
	c := New(Config{SweepInterval: -1})
	var d Deps
	d.AddTerm("somewhere")
	c.Put("k", c.Begin(d), []byte("x"), `"t"`)
	// Bump more than half the groups at once: the epoch path must kill
	// everything, including deps whose own group bit wasn't in the set.
	var wide Bits
	for g := 0; g < numGroups*3/4; g++ {
		wide.Set(uint16(g))
	}
	c.Bump(wide)
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("entry survived a wide (epoch) bump")
	}
}

func TestCapacityEviction(t *testing.T) {
	c := New(Config{Shards: 1, MaxEntries: 4, SweepInterval: -1})
	var d Deps
	d.AddTerm("t")
	for i := 0; i < 20; i++ {
		key := Key("search", fmt.Sprintf("q%d", i), 0, 10)
		c.Put(key, c.Begin(d), []byte("x"), `"t"`)
	}
	if n := c.Len(); n > 4 {
		t.Fatalf("cache over capacity: %d entries, cap 4", n)
	}
}

func TestSweepRemovesExpiredAndInvalid(t *testing.T) {
	ents := distinctEntities(t, 2)
	c := New(Config{TTL: time.Second, SweepInterval: -1})
	now := time.Unix(1000, 0)
	c.SetNow(func() time.Time { return now })

	var d0, d1 Deps
	d0.AddEntity(ents[0])
	d1.AddEntity(ents[1])
	c.Put("expired", c.Begin(d0), []byte("x"), `"t"`)
	c.Put("invalid", c.Begin(d1), []byte("y"), `"t"`)

	now = now.Add(2 * time.Second) // "expired" ages out
	var b Bits
	b.Set(groupOf(kindEntity, ents[1])) // "invalid" loses its dep
	c.Bump(b)

	// Re-add a live entry after the bump.
	c.SetNow(func() time.Time { return now })
	c.Put("live", c.Begin(d1), []byte("z"), `"t"`)

	c.sweep()
	if c.Len() != 1 {
		t.Fatalf("after sweep: %d entries, want 1 (live)", c.Len())
	}
	if _, _, ok := c.Get("live"); !ok {
		t.Fatal("live entry swept")
	}
}

func TestSweeperLifecycle(t *testing.T) {
	c := New(Config{TTL: 10 * time.Millisecond, SweepInterval: 5 * time.Millisecond})
	var d Deps
	d.AddTerm("x")
	c.Put("k", c.Begin(d), []byte("x"), `"t"`)
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
	ents := distinctEntities(t, 8)
	c := New(Config{MaxEntries: 64, SweepInterval: -1})
	defer c.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ent := ents[w]
			var d Deps
			d.AddEntity(ent)
			var b Bits
			b.Set(groupOf(kindEntity, ent))
			for i := 0; i < 500; i++ {
				key := Key("search", ent, 0, 10)
				if body, _, ok := c.Get(key); ok {
					if string(body) != ent {
						t.Errorf("cross-tenant body: got %q want %q", body, ent)
					}
				} else {
					c.Put(key, c.Begin(d), []byte(ent), `"t"`)
				}
				if i%50 == 0 {
					c.Bump(b)
				}
				if i%100 == 0 {
					c.sweep()
				}
			}
		}(w)
	}
	wg.Wait()
}
