// Package qcache is the query-result cache: a sharded, expiring map
// from (endpoint, query, offset, limit) to the encoded response bytes
// and their ETag, invalidated by the same alignment publishes that
// maintain internal/index. Stories' entity and term symbols are hashed
// into numGroups invalidation groups, each with a version stamp; an entry
// remembers which groups its query depends on and the global stamp at
// which its computation began, and is valid only while none of those
// groups (nor the coarse epoch) was bumped past that stamp. Publishes
// whose integrated stories keep their versions bump nothing, so a quiet engine
// serves hits indefinitely (until TTL); a publish that changes stories
// bumps only the groups their integrated stories' symbols hash into.
//
// Correctness protocol (the part the differential suite proves): a
// caller must capture its Token with Begin BEFORE reading the index
// and encode the result, then Put. Any publish that lands between
// Begin and Put bumps a dep group past the token's stamp, so the entry
// is stored already-invalid — conservatively wasted work, never a
// stale read. Get re-validates the stored token on every lookup.
package qcache

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Inline FNV-64a (hash/fnv hands out its state behind an interface,
// which heap-allocates on every call — this package hashes on the
// cache-hit path, which TestCacheHitAllocs pins).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64aString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func fnv64aByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

var (
	metHits          = obs.GetCounter("storypivot_cache_hits_total", "query-cache lookups served from a valid entry")
	metMisses        = obs.GetCounter("storypivot_cache_misses_total", "query-cache lookups that found no valid entry")
	metInvalidations = obs.GetCounter("storypivot_cache_invalidations_total", "query-cache entries dropped because a dependency group was bumped")
	metEvictions     = obs.GetCounter("storypivot_cache_evictions_total", "query-cache entries dropped by TTL expiry or capacity pressure")
)

// numGroups is the invalidation-group fan-out. It must comfortably
// exceed the active symbol universe a single alignment delta touches:
// one changed integrated story carries every distinct entity and term
// of all its members (easily hundreds of symbols), and a batched
// publish carries several such stories. At 4096 groups (a 512-byte
// bitmap) a realistic delta bumps a few percent of the space, so
// queries over untouched symbols keep their entries; at 256 the same
// delta saturates half the space and the coarse-epoch fallback would
// flush the whole cache on every batch.
const numGroups = 4096

// Bits is a set of invalidation groups.
type Bits [numGroups / 64]uint64

// Set adds group g.
func (b *Bits) Set(g uint16) { b[g>>6] |= 1 << (g & 63) }

// Or returns the union.
func (b Bits) Or(o Bits) Bits {
	for i := range b {
		b[i] |= o[i]
	}
	return b
}

// Count returns the number of set groups.
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether any group is set.
func (b Bits) Any() bool {
	var or uint64
	for _, w := range b {
		or |= w
	}
	return or != 0
}

// Symbol kinds. Entities and terms are distinct vocab namespaces
// (vocab.Entities vs vocab.Terms), so the group hash must separate
// them too: entity "ukraine" and term "ukraine" land in independent
// groups.
const (
	kindEntity = 'e'
	kindTerm   = 't'
)

// groupOf hashes a symbol STRING (not its vocab ID) into a group, so
// the dependency side can hash query tokens that were never interned:
// when the symbol later appears in a story, the bump side hashes the
// same string and hits the same group.
func groupOf(kind byte, sym string) uint16 {
	return uint16(fnv64aString(fnv64aByte(fnvOffset64, kind), sym) % numGroups)
}

// Deps is the dependency set of one cached response.
type Deps struct {
	bits Bits
}

// AddEntity declares a dependency on an entity symbol.
func (d *Deps) AddEntity(name string) { d.bits.Set(groupOf(kindEntity, name)) }

// AddTerm declares a dependency on a term symbol (callers pass the
// same processed token form the index matches on, i.e. the output of
// text.Pipeline).
func (d *Deps) AddTerm(tok string) { d.bits.Set(groupOf(kindTerm, tok)) }

// Token is the validity witness of one cached computation: the
// dependency set plus the global bump-clock value at Begin time.
type Token struct {
	deps  Deps
	stamp uint64
}

type entry struct {
	body    []byte
	etag    string
	tok     Token
	expires int64 // unixnano; 0 = never
}

type cshard struct {
	mu sync.RWMutex
	m  map[string]*entry
}

// Config sizes a Cache. Zero values pick the defaults.
type Config struct {
	// Shards is rounded up to a power of two (default 16).
	Shards int
	// MaxEntries caps the total entry count (default 4096; <0 = no cap).
	MaxEntries int
	// TTL bounds entry age regardless of invalidation (default 30s;
	// <0 = no expiry).
	TTL time.Duration
	// SweepInterval is the background expiry sweep period (default
	// TTL/2; <0 disables the sweeper).
	SweepInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	if c.MaxEntries == 0 {
		c.MaxEntries = 4096
	}
	if c.TTL == 0 {
		c.TTL = 30 * time.Second
	}
	if c.SweepInterval == 0 && c.TTL > 0 {
		c.SweepInterval = c.TTL / 2
	}
	return c
}

// Cache is the sharded result cache. Safe for concurrent use.
type Cache struct {
	cfg      Config
	perShard int // max entries per shard, <=0 = uncapped
	shards   []*cshard

	// clock hands out bump ordinals; vers[g] holds the ordinal of
	// group g's latest bump, epoch the ordinal of the latest coarse
	// invalidation. An entry begun at stamp s is valid while every
	// version it depends on is <= s.
	clock atomic.Uint64
	vers  [numGroups]atomic.Uint64
	epoch atomic.Uint64

	now func() time.Time

	// Sweeper lifecycle, mirroring the index compactor: lifeMu makes
	// StartSweeper/Close safe to call in any order and at most one
	// sweeper run.
	lifeMu   sync.Mutex
	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

// New creates a cache. Call Close when done if StartSweeper was used.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{
		cfg:    cfg,
		shards: make([]*cshard, cfg.Shards),
		now:    time.Now,
		stopCh: make(chan struct{}),
	}
	if cfg.MaxEntries > 0 {
		c.perShard = (cfg.MaxEntries + cfg.Shards - 1) / cfg.Shards
		if c.perShard < 1 {
			c.perShard = 1
		}
	}
	for i := range c.shards {
		c.shards[i] = &cshard{m: make(map[string]*entry)}
	}
	return c
}

// SetNow overrides the clock (tests only).
func (c *Cache) SetNow(now func() time.Time) { c.now = now }

// Key builds the canonical cache key for a paged endpoint query.
func Key(endpoint, query string, offset, limit int) string {
	return fmt.Sprintf("%s\x00%s\x00%d\x00%d", endpoint, query, offset, limit)
}

func (c *Cache) shardFor(key string) *cshard {
	h := fnv64aString(fnvOffset64, key)
	return c.shards[int(h)&(len(c.shards)-1)]
}

// Begin captures the validity token for a computation about to start.
// It MUST be called before the caller reads the index; see the package
// comment for why the order matters.
func (c *Cache) Begin(deps Deps) Token {
	return Token{deps: deps, stamp: c.clock.Load()}
}

// valid reports whether no dependency of tok was bumped past its stamp.
func (c *Cache) valid(tok Token) bool {
	if c.epoch.Load() > tok.stamp {
		return false
	}
	for i, w := range tok.deps.bits {
		for w != 0 {
			g := i<<6 + bits.TrailingZeros64(w)
			if c.vers[g].Load() > tok.stamp {
				return false
			}
			w &= w - 1
		}
	}
	return true
}

// Get returns the cached body and ETag for key if a fresh, valid entry
// exists. The returned body is shared — callers must not mutate it.
func (c *Cache) Get(key string) (body []byte, etag string, ok bool) {
	sh := c.shardFor(key)
	sh.mu.RLock()
	e := sh.m[key]
	sh.mu.RUnlock()
	if e == nil {
		metMisses.Inc()
		return nil, "", false
	}
	if e.expires != 0 && c.now().UnixNano() > e.expires {
		c.deleteIf(sh, key, e)
		metEvictions.Inc()
		metMisses.Inc()
		return nil, "", false
	}
	if !c.valid(e.tok) {
		c.deleteIf(sh, key, e)
		metInvalidations.Inc()
		metMisses.Inc()
		return nil, "", false
	}
	metHits.Inc()
	return e.body, e.etag, true
}

// Put stores an encoded response under key. A token whose dependencies
// were bumped since Begin is dropped on the floor: the result may
// reflect a pre-bump index read, and storing it could serve staleness.
func (c *Cache) Put(key string, tok Token, body []byte, etag string) {
	if !c.valid(tok) {
		return
	}
	e := &entry{body: body, etag: etag, tok: tok}
	if c.cfg.TTL > 0 {
		e.expires = c.now().Add(c.cfg.TTL).UnixNano()
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	if _, exists := sh.m[key]; !exists && c.perShard > 0 && len(sh.m) >= c.perShard {
		c.evictOneLocked(sh)
	}
	sh.m[key] = e
	sh.mu.Unlock()
}

// evictOneLocked frees one slot, preferring an entry that is already
// dead (expired or invalidated) over a live one.
func (c *Cache) evictOneLocked(sh *cshard) {
	now := c.now().UnixNano()
	var victim string
	found := false
	for k, e := range sh.m {
		if (e.expires != 0 && now > e.expires) || !c.valid(e.tok) {
			victim, found = k, true
			break
		}
		if !found {
			victim, found = k, true // fallback: arbitrary live entry
		}
	}
	if found {
		delete(sh.m, victim)
		metEvictions.Inc()
	}
}

func (c *Cache) deleteIf(sh *cshard, key string, e *entry) {
	sh.mu.Lock()
	if sh.m[key] == e {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
}

// Bump invalidates every entry depending on any group in b. When more
// than half the groups are touched at once the coarse epoch is bumped
// instead — one store instead of 128+, same conservative effect.
func (c *Cache) Bump(b Bits) {
	if !b.Any() {
		return
	}
	stamp := c.clock.Add(1)
	if b.Count() > numGroups/2 {
		c.epoch.Store(stamp)
	} else {
		for i, w := range b {
			for w != 0 {
				g := i<<6 + bits.TrailingZeros64(w)
				c.vers[g].Store(stamp)
				w &= w - 1
			}
		}
	}
}

// BumpAll invalidates everything (pipeline rebuild, corpus reload,
// engine rebind — any event after which per-group accounting restarts
// from scratch).
func (c *Cache) BumpAll() {
	stamp := c.clock.Add(1)
	c.epoch.Store(stamp)
}

// Len returns the current entry count (tests and debug).
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// sweep removes expired and invalidated entries.
func (c *Cache) sweep() {
	now := c.now().UnixNano()
	for _, sh := range c.shards {
		sh.mu.Lock()
		for k, e := range sh.m {
			switch {
			case e.expires != 0 && now > e.expires:
				delete(sh.m, k)
				metEvictions.Inc()
			case !c.valid(e.tok):
				delete(sh.m, k)
				metInvalidations.Inc()
			}
		}
		sh.mu.Unlock()
	}
}

// StartSweeper runs the expiry sweep every cfg.SweepInterval until
// Close. Calling it more than once, or after Close, is a no-op.
func (c *Cache) StartSweeper() {
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	select {
	case <-c.stopCh:
		return // already closed
	default:
	}
	if c.done != nil || c.cfg.SweepInterval <= 0 {
		return
	}
	c.done = make(chan struct{})
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.cfg.SweepInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.sweep()
			case <-c.stopCh:
				return
			}
		}
	}()
}

// Close stops the sweeper (idempotent).
func (c *Cache) Close() {
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	c.stopOnce.Do(func() { close(c.stopCh) })
	if c.done != nil {
		<-c.done
		c.done = nil
	}
}

// ETagFor computes the strong entity tag for an encoded body: a quoted
// FNV-64a digest. Equal bodies — the only thing the coherence suite
// permits for equal tags — always produce equal tags.
func ETagFor(body []byte) string {
	h := uint64(fnvOffset64)
	for _, b := range body {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return fmt.Sprintf("\"%016x\"", h)
}
