// Package qcache is the query-result cache: a sharded, expiring map
// from (endpoint, query, offset, limit) to the encoded response bytes
// and their ETag.
//
// It keeps no account of publishes. Every entry holds the index.Stamp of
// the query read it encodes, and Get asks the live index whether that
// stamp is still current: the same index answered it, and no later
// publish stamped one of its symbols. Publishes whose integrated stories
// keep their versions stamp nothing, so a quiet engine serves hits
// indefinitely (until TTL). A page read from a pipeline that was swapped
// out names an index that is no longer live, so it is never served and
// never stored; callers follow no ordering rule.
package qcache

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"repro/internal/index"
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

var (
	metHits          = obs.GetCounter("storypivot_cache_hits_total", "query-cache lookups served from a valid entry")
	metMisses        = obs.GetCounter("storypivot_cache_misses_total", "query-cache lookups that found no valid entry")
	metInvalidations = obs.GetCounter("storypivot_cache_invalidations_total", "query-cache entries dropped because a publish changed a symbol they depend on or their index was replaced")
	metEvictions     = obs.GetCounter("storypivot_cache_evictions_total", "query-cache entries dropped by TTL expiry or capacity pressure")
)

type entry struct {
	body    []byte
	etag    string
	stamp   index.Stamp
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

	// current returns the index whose stamps decide validity: the one
	// live queries read.
	current func() *index.Index

	now func() time.Time

	// Sweeper lifecycle: lifeMu makes StartSweeper/Close safe to call in
	// any order and at most one sweeper run.
	lifeMu   sync.Mutex
	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

// New creates a cache whose entries hold while current() says their
// stamps do. Call Close when done if StartSweeper was used.
func New(cfg Config, current func() *index.Index) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{
		cfg:     cfg,
		shards:  make([]*cshard, cfg.Shards),
		current: current,
		now:     time.Now,
		stopCh:  make(chan struct{}),
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

// valid reports whether the live index still stands behind st.
func (c *Cache) valid(st *index.Stamp) bool { return c.current().Current(st) }

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
	if !c.valid(&e.stamp) {
		c.deleteIf(sh, key, e)
		metInvalidations.Inc()
		metMisses.Inc()
		return nil, "", false
	}
	metHits.Inc()
	return e.body, e.etag, true
}

// Put stores an encoded response under key, with the stamp of the index
// read it encodes. A stamp the live index no longer stands behind is
// dropped on the floor: a publish or a pipeline swap overtook the read.
func (c *Cache) Put(key string, st index.Stamp, body []byte, etag string) {
	if !c.valid(&st) {
		return
	}
	e := &entry{body: body, etag: etag, stamp: st}
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
		if (e.expires != 0 && now > e.expires) || !c.valid(&e.stamp) {
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
			case !c.valid(&e.stamp):
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
// 64-bit digest, CRC-32C (Castagnoli) in the high half and CRC-32 (IEEE)
// in the low, both of which the hash/crc32 package computes with the
// processor's CRC instructions where it has them. Equal bodies — the only
// thing the coherence suite permits for equal tags — always produce equal
// tags, and a CRC tells apart any two bodies of equal length that differ
// in one byte.
func ETagFor(body []byte) string {
	var sum [8]byte
	binary.BigEndian.PutUint32(sum[:4], crc32.Checksum(body, castagnoli))
	binary.BigEndian.PutUint32(sum[4:], crc32.ChecksumIEEE(body))
	var tag [2 + 2*len(sum)]byte
	tag[0], tag[len(tag)-1] = '"', '"'
	hex.Encode(tag[1:len(tag)-1], sum[:])
	return string(tag[:])
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)
