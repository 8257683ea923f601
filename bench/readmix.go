package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"sort"
)

type opKind uint8

const (
	opSearch opKind = iota
	opEntity
	opTimeline
	opWrite      // POST /api/documents with one held-out document
	opIngest     // library Pipeline.Ingest of one snippet (ingest-stream)
	numReadKinds = 3
)

var kindNames = [...]string{"search", "by-entity", "timeline", "write", "ingest"}

const (
	searchPairs  = 8192 // distinct two-term search keys
	timelinePage = 20
	tenants      = 8
	revalShare   = 0.10 // reads that revalidate a key already seen
	writeEvery   = 32   // mixed workloads: one op in this many is a POST
)

// op is one generated operation. key indexes keyspace.keys for reads,
// the held-out documents for writes, and the measured snippets for
// library ingests.
type op struct {
	kind   opKind
	tenant uint8
	reval  bool
	key    int32
}

// readKey is one distinct cacheable request.
type readKey struct {
	kind   opKind
	arg    string // search query or entity
	offset int
	limit  int
	path   string // request path and query
}

// keyspace is the set of distinct reads readmix draws from: about 8192
// term pairs, every corpus entity, and every page of every entity's
// timeline, roughly 9k cache keys against the 4096-entry default cache.
type keyspace struct {
	keys   []readKey
	byKind [numReadKinds][]int32
	// popular draws a key of each kind by popularity. Which keys are
	// popular is part of the workload, not of the seed: the seed decides
	// the draws. (A seed that made a deep timeline page the hottest key
	// changed cluster-mixed's allocations per op by 30 %: the router asks
	// every shard for offset+limit rows.)
	popular [numReadKinds]*sampler
}

func buildKeyspace(c *corpus) *keyspace {
	ks := &keyspace{}
	add := func(k readKey) {
		ks.byKind[k.kind] = append(ks.byKind[k.kind], int32(len(ks.keys)))
		ks.keys = append(ks.keys, k)
	}
	stories := c.storyTerms()
	quota := (searchPairs + len(stories) - 1) / len(stories)
	for _, toks := range stories {
		n := 0
		// Pairs in order of the later token's rank, so a story's most
		// frequent terms are used first and the quota cuts the rare tail.
		for j := 1; j < len(toks) && n < quota; j++ {
			for i := 0; i < j && n < quota; i++ {
				q := toks[i] + " " + toks[j]
				add(readKey{kind: opSearch, arg: q, limit: 10,
					path: "/api/search?" + url.Values{"q": {q}, "limit": {"10"}}.Encode()})
				n++
			}
		}
	}
	mentions := c.entityMentions()
	for _, e := range c.entities {
		add(readKey{kind: opEntity, arg: e, limit: 10,
			path: "/api/stories/by-entity?" + url.Values{"entity": {e}, "limit": {"10"}}.Encode()})
	}
	// Search pairs and entities are zipfian (s = 1) in a fixed shuffled
	// order; a timeline page is as popular as its entity, divided by its
	// page number: readers start at the first page.
	rng := rand.New(rand.NewSource(corpusSeed))
	zipfian := func(n int) []float64 {
		w := make([]float64, n)
		for i, r := range rng.Perm(n) {
			w[i] = 1 / float64(r+1)
		}
		return w
	}
	entityWeight := zipfian(len(c.entities))
	var pageWeight []float64
	for i, e := range c.entities {
		for off := 0; off < mentions[e]; off += timelinePage {
			add(readKey{kind: opTimeline, arg: e, offset: off, limit: timelinePage,
				path: fmt.Sprintf("/api/timeline?entity=%s&offset=%d&limit=%d", url.QueryEscape(e), off, timelinePage)})
			pageWeight = append(pageWeight, entityWeight[i]/float64(off/timelinePage+1))
		}
	}
	ks.popular[opSearch] = newSampler(zipfian(len(ks.byKind[opSearch])))
	ks.popular[opEntity] = newSampler(entityWeight)
	ks.popular[opTimeline] = newSampler(pageWeight)
	return ks
}

// sampler draws indices in proportion to their weights.
type sampler struct{ cum []float64 }

func newSampler(weights []float64) *sampler {
	s := &sampler{cum: make([]float64, len(weights))}
	total := 0.0
	for i, w := range weights {
		total += w
		s.cum[i] = total
	}
	return s
}

func (s *sampler) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(s.cum, rng.Float64()*s.cum[len(s.cum)-1])
}

// readmix generates n operations: 40 % search, 30 % by-entity, 30 %
// timeline, keys drawn by popularity, tenants in rotation. With
// writes > 0, one op in writeEvery is a POST of the next held-out
// document.
func readmix(ks *keyspace, seed int64, n, writes int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, n)
	nextDoc := 0
	for i := range ops {
		o := op{tenant: uint8(i % tenants)}
		if writes > 0 && i%writeEvery == writeEvery/2 && nextDoc < writes {
			o.kind, o.key = opWrite, int32(nextDoc)
			nextDoc++
		} else {
			switch u := rng.Float64(); {
			case u < 0.4:
				o.kind = opSearch
			case u < 0.7:
				o.kind = opEntity
			default:
				o.kind = opTimeline
			}
			o.key = ks.byKind[o.kind][ks.popular[o.kind].draw(rng)]
			o.reval = rng.Float64() < revalShare
		}
		ops[i] = o
	}
	return ops
}

// opHash identifies op i of a sequence; the clients sum the hashes of
// the ops they execute, and the sum must match the generated sequence.
func opHash(i int, o op) uint64 {
	x := uint64(i)<<40 ^ uint64(uint32(o.key))<<8 ^ uint64(o.kind)<<4 ^ uint64(o.tenant)<<1
	if o.reval {
		x ^= 1
	}
	// splitmix64 finalizer
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// digest hashes a generated sequence, resolving each op to the request
// it stands for, and returns the hash with the sum the clients must
// reproduce.
func digest(ops []op, name func(op) string) (hash string, sum uint64) {
	h := fnv.New64a()
	var buf [8]byte
	for i, o := range ops {
		x := opHash(i, o)
		sum += x
		for b := range buf {
			buf[b] = byte(x >> (8 * b))
		}
		h.Write(buf[:])
		h.Write([]byte(name(o)))
	}
	return fmt.Sprintf("%016x", h.Sum64()), sum
}
