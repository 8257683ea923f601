package index

import (
	"repro/internal/event"
	"repro/internal/text"
	"repro/internal/vocab"
)

// Query evaluation. All queries run under the read lock, rank with the
// per-query pooled accumulator, and return a page [offset, offset+limit)
// of the ranked hits, the total hit count and the Stamp that says when
// the page goes stale. limit < 0 returns everything from offset on. Ranking and tie-breaking reproduce the
// legacy scan path exactly: Search orders by summed centroid weight of
// the matched terms, StoriesByEntity by total mention count, both with
// ties broken by ascending integrated ID; Timeline is chronological
// with ties broken by snippet ID.

// Shared empty results. Every query path returns a non-nil slice on
// zero hits so the HTTP layer serialises `[]`, never `null`, and does it
// without allocating (the miss paths are pinned at zero allocations).
var (
	emptyStories  = []*event.IntegratedStory{}
	emptySnippets = []*event.Snippet{}
	emptyScores   = []float64{}
)

// Search answers free-text queries: the query is tokenised, stopword-
// filtered, and stemmed, then scored through the term postings.
func (x *Index) Search(query string, offset, limit int) ([]*event.IntegratedStory, int, Stamp) {
	out, _, total, st := x.searchOpt(query, offset, limit, false)
	return out, total, st
}

// SearchScored is Search plus the per-result scores — the side channel a
// scatter-gather router needs to merge shard pages under the exact
// single-node ordering (see MergeRanked in ranked.go).
func (x *Index) SearchScored(query string, offset, limit int) ([]*event.IntegratedStory, []float64, int, Stamp) {
	return x.searchOpt(query, offset, limit, true)
}

func (x *Index) searchOpt(query string, offset, limit int, withScores bool) ([]*event.IntegratedStory, []float64, int, Stamp) {
	toks := text.Pipeline(query)
	if len(toks) == 0 {
		return emptyStories, emptyScores, 0, Stamp{index: x.id}
	}
	span := metQueryLat.Start()
	defer span.End()
	metQueries.Inc()
	x.mu.RLock()
	defer x.mu.RUnlock()
	st := Stamp{index: x.id, epoch: x.epoch.Load(), terms: toks}
	a := getAccum(len(x.slots))
	defer putAccum(a)
	for _, tok := range toks {
		tid, ok := vocab.Terms.Lookup(tok)
		if !ok {
			continue
		}
		for _, p := range x.terms[tid] {
			a.add(x.stories[p.story].slot, p.w)
		}
	}
	out, scores, total := x.pageHits(a, offset, limit, withScores)
	return out, scores, total, st
}

// StoriesByEntity answers entity queries through the entity postings,
// ranked by how prominently the integrated story mentions the entity.
func (x *Index) StoriesByEntity(ent event.Entity, offset, limit int) ([]*event.IntegratedStory, int, Stamp) {
	out, _, total, st := x.entityOpt(ent, offset, limit, false)
	return out, total, st
}

// StoriesByEntityScored is StoriesByEntity plus per-result scores, for
// the same router-side merge as SearchScored.
func (x *Index) StoriesByEntityScored(ent event.Entity, offset, limit int) ([]*event.IntegratedStory, []float64, int, Stamp) {
	return x.entityOpt(ent, offset, limit, true)
}

func (x *Index) entityOpt(ent event.Entity, offset, limit int, withScores bool) ([]*event.IntegratedStory, []float64, int, Stamp) {
	span := metQueryLat.Start()
	defer span.End()
	metQueries.Inc()
	x.mu.RLock()
	defer x.mu.RUnlock()
	st := Stamp{index: x.id, epoch: x.epoch.Load(), entity: string(ent)}
	eid, ok := vocab.Entities.Lookup(string(ent))
	if !ok {
		return emptyStories, emptyScores, 0, st
	}
	a := getAccum(len(x.slots))
	defer putAccum(a)
	for _, p := range x.ents[eid] {
		a.add(x.stories[p.story].slot, p.w)
	}
	out, scores, total := x.pageHits(a, offset, limit, withScores)
	return out, scores, total, st
}

// pageHits ranks the accumulated scores and materialises the requested
// page, optionally with the parallel score slice. Caller holds the read
// lock.
func (x *Index) pageHits(a *accum, offset, limit int, withScores bool) ([]*event.IntegratedStory, []float64, int) {
	hits := a.collectHits(x.slots)
	total := len(hits)
	k := -1
	if limit >= 0 {
		k = max(offset, 0) + limit
	}
	ranked := rankHits(hits, k)
	lo, hi := pageBounds(len(ranked), offset, limit)
	if hi == lo {
		return emptyStories, emptyScores, total
	}
	out := make([]*event.IntegratedStory, hi-lo)
	scores := emptyScores
	if withScores {
		scores = make([]float64, hi-lo)
	}
	for i := lo; i < hi; i++ {
		out[i-lo] = x.slots[ranked[i].slot]
		if withScores {
			scores[i-lo] = ranked[i].score
		}
	}
	return out, scores, total
}

// Timeline answers per-entity chronology queries by walking only the
// entity's timeline segments in bucket order.
func (x *Index) Timeline(ent event.Entity, offset, limit int) ([]*event.Snippet, int, Stamp) {
	span := metQueryLat.Start()
	defer span.End()
	metQueries.Inc()
	x.mu.RLock()
	defer x.mu.RUnlock()
	st := Stamp{index: x.id, epoch: x.epoch.Load(), entity: string(ent)}
	eid, ok := vocab.Entities.Lookup(string(ent))
	if !ok {
		return emptySnippets, 0, st
	}
	tl := x.timelines[eid]
	if tl == nil {
		return emptySnippets, 0, st
	}
	total := 0
	for _, key := range tl.keys {
		total += len(tl.buckets[key].posts)
	}
	lo, hi := pageBounds(total, offset, limit)
	if lo == hi {
		return emptySnippets, total, st
	}
	// Skip whole segments up to the one holding offset, then copy the
	// page out of as many segments as it spans.
	n := hi - lo
	out := make([]*event.Snippet, 0, n)
	for _, key := range tl.keys {
		posts := tl.buckets[key].posts
		if lo >= len(posts) {
			lo -= len(posts)
			continue
		}
		for _, p := range posts[lo:] {
			out = append(out, p.sn)
			if len(out) == n {
				return out, total, st
			}
		}
		lo = 0
	}
	return out, total, st
}
