package index

import (
	"sort"
	"sync"

	"repro/internal/event"
)

// Posting layout. A posting names the story it was written for and
// nothing else: Publish deletes a story's postings before it writes the
// next version's and when the story leaves the result (see
// deletePostings), so every posting in a list is live and readers use
// it as it is.

// post is one ranked posting: the story scores w for the symbol — for an
// entity the number of snippets mentioning it, for a term its centroid
// weight.
type post struct {
	story event.StoryID
	w     float64
}

// hit is one scored integrated story during query ranking: its slot in
// the index's slot table and its ID, the tie-break key.
type hit struct {
	id    event.IntegratedID
	slot  int32
	score float64
}

// accum is the per-query scratch: a dense score accumulator over
// integrated-story slots plus the list of touched slots (so reset cost
// is proportional to the result, not the corpus) and a reusable hits
// buffer. Pooled so steady-state queries do not allocate.
type accum struct {
	score   []float64
	touched []int32
	hits    []hit
}

var accumPool = sync.Pool{New: func() any { return new(accum) }}

func getAccum(n int) *accum {
	a := accumPool.Get().(*accum)
	if cap(a.score) < n {
		a.score = make([]float64, n)
	}
	a.score = a.score[:n]
	return a
}

func putAccum(a *accum) {
	for _, slot := range a.touched {
		a.score[slot] = 0
	}
	a.touched = a.touched[:0]
	a.hits = a.hits[:0]
	accumPool.Put(a)
}

// add accumulates delta into slot, tracking first touches.
func (a *accum) add(slot int32, delta float64) {
	if a.score[slot] == 0 {
		a.touched = append(a.touched, slot)
	}
	a.score[slot] += delta
}

// collectHits materialises the touched slots with positive scores into
// the hits buffer.
func (a *accum) collectHits(slots []*event.IntegratedStory) []hit {
	for _, slot := range a.touched {
		if s := a.score[slot]; s > 0 {
			a.hits = append(a.hits, hit{id: slots[slot].ID, slot: slot, score: s})
		}
	}
	return a.hits
}

// better reports whether x ranks strictly before y: higher score first,
// ties by ascending IntegratedID (the scan path's tie-break).
func better(x, y hit) bool {
	if x.score != y.score {
		return x.score > y.score
	}
	return x.id < y.id
}

// rankHits orders hits so that the first min(k, len) are the best, in
// rank order (see topK): paged queries pass k = offset+limit.
func rankHits(hits []hit, k int) []hit { return topK(hits, k, better) }

// topK is the bounded selection core shared by the worker-side rankHits
// and the router-side MergeRanked (see ranked.go): it orders h so that
// the first min(k, len) entries are the best under cmp, in rank order.
// k < 0 (or k >= len) sorts everything; otherwise h[:k] is maintained as
// a min-heap rooted at the worst kept element while the tail streams
// through, O(n log k).
func topK[T any](h []T, k int, cmp func(T, T) bool) []T {
	if k < 0 || k >= len(h) {
		sort.Slice(h, func(i, j int) bool { return cmp(h[i], h[j]) })
		return h
	}
	if k == 0 {
		return h[:0]
	}
	heap := h[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(heap, i, cmp)
	}
	for _, x := range h[k:] {
		if cmp(x, heap[0]) {
			heap[0] = x
			siftDown(heap, 0, cmp)
		}
	}
	sort.Slice(heap, func(i, j int) bool { return cmp(heap[i], heap[j]) })
	return heap
}

// siftDown restores the min-heap property (worst element at the root)
// from index i.
func siftDown[T any](h []T, i int, cmp func(T, T) bool) {
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(h) && cmp(h[worst], h[l]) {
			worst = l
		}
		if r < len(h) && cmp(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// pageBounds clamps [offset, offset+limit) to n items. limit < 0 means
// "everything after offset".
func pageBounds(n, offset, limit int) (lo, hi int) {
	lo = min(max(offset, 0), n)
	if limit < 0 {
		return lo, n
	}
	return lo, min(lo+limit, n)
}
