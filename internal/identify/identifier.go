package identify

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/event"
	"repro/internal/similarity"
	"repro/internal/sketch"
	"repro/internal/vocab"
)

// Identifier performs incremental story identification for a single data
// source. Snippets are fed in arrival order through Process; the evolving
// story set is available through Stories/Assignment at any time.
//
// An Identifier is not safe for concurrent use; the stream engine
// serialises access per source.
type Identifier struct {
	source event.SourceID
	cfg    Config
	alloc  *IDAlloc

	stories map[event.StoryID]*event.Story
	order   []event.StoryID // creation order, for deterministic iteration
	assign  map[event.SnippetID]event.StoryID

	// Sketch index (optional): MinHash signatures over story content with
	// a banded LSH index for candidate retrieval.
	hasher *sketch.MinHasher
	lsh    *sketch.LSH
	sigs   map[event.StoryID]sketch.Signature

	// winCache memoises per-story windowed aggregates. Queries are
	// quantised to buckets of width ω/2, so the near-chronological
	// snippet stream reuses one aggregate for many scores instead of
	// rebuilding the window centroid per comparison (which would make
	// temporal mode pay more per comparison than the complete baseline
	// saves in comparison count).
	winCache map[event.StoryID]*windowAggregate

	// ents counts how many processed snippets mention each entity; it
	// backs the IDF-style entity weighting (popular entities carry little
	// story-discriminating signal on real news streams).
	ents similarity.EntityIDF

	// ew is the entity weighter handed to the similarity kernels, bound
	// once at construction: rebuilding the method value per score call
	// would put one allocation on every comparison.
	ew similarity.IDWeighter

	// candScratch is the reusable backing array for candidates(), so the
	// per-snippet candidate scan does not allocate in steady state.
	candScratch []*event.Story

	// ufScratch is the reusable union-find parent buffer of the repair
	// pass's connectivity check (see components).
	ufScratch []int

	// sigScratch and lshScratch are the sketch-index per-event buffers:
	// the probe signature and the LSH candidate list are rebuilt in place
	// for every snippet instead of allocated.
	sigScratch sketch.Signature
	lshScratch []uint64

	// touched records every story created, mutated or dropped since the
	// last Drain; drained is Drain's reused result buffer.
	touched map[event.StoryID]struct{}
	drained []event.StoryID

	sinceRepair int
	stats       Stats
}

// New creates an identifier for one source. All identifiers of a run share
// the allocator so story IDs are globally unique.
func New(source event.SourceID, cfg Config, alloc *IDAlloc) *Identifier {
	if alloc == nil {
		alloc = &IDAlloc{}
	}
	id := &Identifier{
		source:   source,
		cfg:      cfg,
		alloc:    alloc,
		stories:  make(map[event.StoryID]*event.Story),
		assign:   make(map[event.SnippetID]event.StoryID),
		winCache: make(map[event.StoryID]*windowAggregate),
		touched:  make(map[event.StoryID]struct{}),
	}
	if cfg.UseEntityIDF {
		id.ew = id.ents.Weight
	}
	if cfg.UseSketchIndex {
		bands, rows := cfg.SketchBands, cfg.SketchRows
		if bands <= 0 {
			bands = 32
		}
		if rows <= 0 {
			rows = 2
		}
		id.hasher = sketch.NewMinHasher(bands*rows, 0x5350)
		id.lsh = sketch.NewLSH(bands, rows)
		id.sigs = make(map[event.StoryID]sketch.Signature)
		id.sigScratch = make(sketch.Signature, bands*rows)
	}
	return id
}

// Source returns the identifier's data source.
func (id *Identifier) Source() event.SourceID { return id.source }

// Stats returns a snapshot of the work counters.
func (id *Identifier) Stats() Stats { return id.stats }

// StoryCount returns the current number of stories.
func (id *Identifier) StoryCount() int { return len(id.stories) }

// Process assigns one snippet to its best-matching story, creating a new
// story when nothing clears the attach threshold, and returns the story ID.
// Process panics if the snippet belongs to a different source — routing is
// the caller's job.
func (id *Identifier) Process(s *event.Snippet) event.StoryID {
	if s.Source != id.source {
		panic(fmt.Sprintf("identify: snippet of source %q fed to identifier of %q", s.Source, id.source))
	}
	s.EnsureInterned()
	span := metProcessLat.Start()
	startComparisons := id.stats.Comparisons
	id.stats.Processed++
	if id.cfg.UseEntityIDF {
		for _, e := range s.EntityIDs {
			id.ents.Add(e, 1)
		}
	}

	best, bestScore := event.StoryID(0), 0.0
	for _, cand := range id.candidates(s) {
		score := id.score(s, cand)
		id.stats.Comparisons++
		if score > bestScore {
			best, bestScore = cand.ID, score
		}
	}

	var target event.StoryID
	if best != 0 && bestScore >= id.cfg.AttachThreshold {
		id.stories[best].Add(s)
		id.updateSketch(best, s)
		id.stats.Attached++
		metAttached.Inc()
		target = best
	} else {
		st := event.NewStory(id.alloc.Next(), id.source)
		st.Add(s)
		id.stories[st.ID] = st
		id.order = append(id.order, st.ID)
		id.indexStory(st)
		id.stats.Created++
		metCreated.Inc()
		target = st.ID
	}
	id.assign[s.ID] = target
	id.touch(target)
	metProcessed.Inc()
	metComparisons.Add(uint64(id.stats.Comparisons - startComparisons))
	span.End()

	if id.cfg.RepairEvery > 0 {
		if id.sinceRepair++; id.sinceRepair >= id.cfg.RepairEvery {
			id.Repair()
			id.sinceRepair = 0
		}
	}
	return target
}

// touch records stories for the next Drain.
func (id *Identifier) touch(sids ...event.StoryID) {
	for _, sid := range sids {
		id.touched[sid] = struct{}{}
	}
}

// Drain returns the ID of every story created, mutated or dropped since
// the last Drain, in ascending order, and clears the record. The slice is
// reused: it is valid until the next Drain.
func (id *Identifier) Drain() []event.StoryID {
	out := id.drained[:0]
	for sid := range id.touched {
		out = append(out, sid)
	}
	clear(id.touched)
	slices.Sort(out)
	id.drained = out
	return out
}

// Pending returns how many stories the next Drain would return.
func (id *Identifier) Pending() int { return len(id.touched) }

// candidates returns the stories worth scoring for snippet s, per the
// configured mode (Figure 2) and sketch-index setting.
func (id *Identifier) candidates(s *event.Snippet) []*event.Story {
	out := id.candScratch[:0]
	defer func() { id.candScratch = out[:0] }()
	if id.cfg.UseSketchIndex {
		sig := id.sigScratch
		sketch.ResetSignature(sig)
		id.foldSnippetElems(sig, s)
		id.lshScratch = id.lsh.QueryAppend(sig, ^uint64(0), id.lshScratch[:0])
		for _, key := range id.lshScratch {
			st, ok := id.stories[event.StoryID(key)]
			if !ok {
				continue
			}
			if id.cfg.Mode == ModeTemporal && !id.inWindow(st, s.Timestamp) {
				continue
			}
			out = append(out, st)
		}
		// Deterministic scoring order. Insertion sort: candidate lists are
		// small and sort.Slice's reflection machinery allocates per call.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}
	for _, sid := range id.order {
		st := id.stories[sid]
		if st == nil {
			continue
		}
		if id.cfg.Mode == ModeTemporal && !id.inWindow(st, s.Timestamp) {
			continue
		}
		out = append(out, st)
	}
	return out
}

// inWindow reports whether the story has any snippet inside [t−ω, t+ω].
func (id *Identifier) inWindow(st *event.Story, t time.Time) bool {
	return !st.Start.After(t.Add(id.cfg.Window)) && !st.End.Before(t.Add(-id.cfg.Window))
}

// windowAggregate is a cached windowed story summary. Queries quantise
// the snippet timestamp to buckets of ω/2; a cache entry is valid while
// the query falls in the same bucket and the story's mutation counter is
// unchanged, so the near-chronological stream amortises the
// window-centroid construction across many scores. Keying on Gen()
// rather than Len() matters during refinement: a remove+add pair leaves
// the length identical while changing the content, which a length-keyed
// cache would serve stale.
type windowAggregate struct {
	bucket   int64  // quantised query time
	gen      uint64 // story Gen() when built
	centroid []vocab.IDWeight
	ents     []vocab.IDCount
	norm     float64
}

// score computes the snippet-story similarity. In temporal mode the story
// is summarised by only the snippets inside the window, so the comparison
// reflects "the story as it currently is"; in complete mode the whole
// history is used (the overfitting baseline).
func (id *Identifier) score(s *event.Snippet, st *event.Story) float64 {
	switch id.cfg.Mode {
	case ModeTemporal:
		agg := id.windowAggregateFor(s.Timestamp, st)
		if agg == nil {
			return 0
		}
		ref := nearestTimestamp(st, s.Timestamp)
		return similarity.SnippetStoryIDs(s, agg.ents, agg.centroid, agg.norm, ref,
			id.cfg.TemporalScale, id.cfg.Weights, id.ew)
	default: // ModeComplete
		ref := nearestTimestamp(st, s.Timestamp)
		return similarity.SnippetStoryIDs(s, st.EntityFreq, st.Centroid, st.CentroidNorm(), ref,
			id.cfg.TemporalScale, id.cfg.Weights, id.ew)
	}
}

// windowAggregateFor returns the (possibly cached) windowed aggregate of
// st around t. The window is anchored at the bucket's midpoint and spans
// [mid−ω−ω/4, mid+ω+ω/4], which covers the exact window of every query
// time inside the bucket.
func (id *Identifier) windowAggregateFor(t time.Time, st *event.Story) *windowAggregate {
	half := id.cfg.Window / 2
	if half <= 0 {
		half = time.Nanosecond
	}
	bucket := t.UnixNano() / int64(half)
	agg := id.winCache[st.ID]
	if agg != nil && agg.bucket == bucket && agg.gen == st.Gen() {
		if len(agg.centroid) == 0 && len(agg.ents) == 0 {
			return nil // cached empty window
		}
		return agg
	}
	if agg == nil {
		agg = &windowAggregate{}
		id.winCache[st.ID] = agg
	}
	mid := time.Unix(0, bucket*int64(half)+int64(half)/2).UTC()
	pad := id.cfg.Window + id.cfg.Window/4
	// Rebuild into the stale aggregate's buffers: bucket advances are the
	// common case on a near-chronological stream, and reusing the arrays
	// makes the rebuild allocation-free in steady state.
	agg.centroid, agg.ents = st.AppendWindowedCentroidIDs(mid.Add(-pad), mid.Add(pad), agg.centroid[:0], agg.ents[:0])
	agg.bucket = bucket
	agg.gen = st.Gen()
	agg.norm = vocab.WeightNorm(agg.centroid)
	if len(agg.centroid) == 0 && len(agg.ents) == 0 {
		return nil
	}
	return agg
}

// nearestTimestamp returns the story snippet timestamp closest to t.
// Manual binary search: this sits inside the per-candidate scoring loop
// and must not allocate a search closure.
func nearestTimestamp(st *event.Story, t time.Time) time.Time {
	n := len(st.Snippets)
	if n == 0 {
		return t
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st.Snippets[mid].Timestamp.Before(t) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo
	switch {
	case i == 0:
		return st.Snippets[0].Timestamp
	case i == n:
		return st.Snippets[n-1].Timestamp
	default:
		before, after := st.Snippets[i-1].Timestamp, st.Snippets[i].Timestamp
		if t.Sub(before) <= after.Sub(t) {
			return before
		}
		return after
	}
}

// Stories returns the current story set in creation order. The returned
// stories are live; callers must not mutate them.
func (id *Identifier) Stories() []*event.Story {
	out := make([]*event.Story, 0, len(id.stories))
	for _, sid := range id.order {
		if st := id.stories[sid]; st != nil && st.Len() > 0 {
			out = append(out, st)
		}
	}
	return out
}

// Story returns the story with the given ID, or nil.
func (id *Identifier) Story(sid event.StoryID) *event.Story { return id.stories[sid] }

// StoryOf returns the story a snippet is currently assigned to (0 if the
// snippet is unknown).
func (id *Identifier) StoryOf(snID event.SnippetID) event.StoryID { return id.assign[snID] }

// Assignment returns a copy of the snippet→story assignment.
func (id *Identifier) Assignment() map[event.SnippetID]event.StoryID {
	out := make(map[event.SnippetID]event.StoryID, len(id.assign))
	for k, v := range id.assign {
		out[k] = v
	}
	return out
}

// Move re-homes a snippet from one story to another (used by story
// refinement, paper Figure 1d). Both stories must belong to this source.
// Emptied stories are dropped. It reports whether the move happened.
func (id *Identifier) Move(snID event.SnippetID, to event.StoryID) bool {
	fromID, ok := id.assign[snID]
	if !ok || fromID == to {
		return false
	}
	from, target := id.stories[fromID], id.stories[to]
	if from == nil || target == nil {
		return false
	}
	var moved *event.Snippet
	for _, s := range from.Snippets {
		if s.ID == snID {
			moved = s
			break
		}
	}
	if moved == nil {
		return false
	}
	from.Remove(snID)
	target.Add(moved)
	id.assign[snID] = to
	id.touch(fromID, to)
	id.reindexStory(from)
	id.reindexStory(target)
	if from.Len() == 0 {
		id.dropStory(fromID)
	}
	return true
}

// Detach removes a story from the identifier's working set — story table,
// window cache, LSH signature — and returns it. The snippet→story
// assignment is deliberately kept (exactly as dropStory does for emptied
// stories): checkpoints must still cover the archived snippets, and the
// retained entries let a reactivated story's snippets resolve without
// rebuild. Returns nil if the story does not exist.
//
// Detach is the retirement half of the retire/reactivate pair; Adopt is
// the inverse.
func (id *Identifier) Detach(sid event.StoryID) *event.Story {
	st := id.stories[sid]
	if st == nil {
		return nil
	}
	id.dropStory(sid)
	id.touch(sid)
	return st
}

// Adopt inserts a fully built story into the identifier's working set:
// story table, creation order, assignment entries, and sketch index. It
// is the reactivation path for archived stories, so it does NOT touch the
// entity IDF statistics — those are cumulative over processed snippets
// and were never decremented when the story was detached. The story ID
// must not collide with a resident story (callers check; the ID allocator
// never recycles).
func (id *Identifier) Adopt(st *event.Story) {
	if st == nil || st.Len() == 0 {
		return
	}
	if _, exists := id.stories[st.ID]; exists {
		return
	}
	id.stories[st.ID] = st
	// Detach leaves the ID in order until dropStory compacts it; a second
	// entry would list the story twice.
	if !slices.Contains(id.order, st.ID) {
		id.order = append(id.order, st.ID)
	}
	for _, sn := range st.Snippets {
		id.assign[sn.ID] = st.ID
	}
	id.indexStory(st)
	id.touch(st.ID)
}

// sketch maintenance --------------------------------------------------------

// snippetElems renders a snippet as sketch elements. Sketches are built
// over the *entity set* — small, stable across a story's evolution, and
// highly overlapping between a story and its snippets — rather than the
// description vocabulary, whose union grows with story length and would
// drive the snippet-vs-story Jaccard (and hence LSH recall) toward zero.
// foldSnippetElems folds s's sketch elements into sig and reports whether
// the signature changed. Entity-free snippets fall back to description
// tokens so they still sketch to something. Elements are hashed in place
// (sketch.HashElem) rather than materialised as tagged strings — this runs
// per event on the sketch-index path and must not allocate.
func (id *Identifier) foldSnippetElems(sig sketch.Signature, s *event.Snippet) bool {
	changed := false
	if len(s.Entities) > 0 {
		for _, e := range s.Entities {
			if id.hasher.UpdateHash(sig, sketch.HashElem('e', string(e))) {
				changed = true
			}
		}
		return changed
	}
	for _, t := range s.Terms {
		if id.hasher.UpdateHash(sig, sketch.HashElem('t', t.Token)) {
			changed = true
		}
	}
	return changed
}

// foldStoryElems folds the story's aggregate elements into sig.
func (id *Identifier) foldStoryElems(sig sketch.Signature, st *event.Story) {
	if len(st.EntityFreq) > 0 {
		for _, ec := range st.EntityFreq {
			id.hasher.UpdateHash(sig, sketch.HashElem('e', vocab.Entities.String(ec.ID)))
		}
		return
	}
	for _, tw := range st.Centroid {
		id.hasher.UpdateHash(sig, sketch.HashElem('t', vocab.Terms.String(tw.ID)))
	}
}

func (id *Identifier) indexStory(st *event.Story) {
	if id.lsh == nil {
		return
	}
	sig := id.sigs[st.ID]
	if sig == nil {
		sig = make(sketch.Signature, id.hasher.Length())
		id.sigs[st.ID] = sig
	}
	sketch.ResetSignature(sig)
	id.foldStoryElems(sig, st)
	id.lsh.Add(uint64(st.ID), sig)
}

func (id *Identifier) updateSketch(sid event.StoryID, s *event.Snippet) {
	if id.lsh == nil {
		return
	}
	sig := id.sigs[sid]
	if sig == nil {
		id.indexStory(id.stories[sid])
		return
	}
	// MinHash is a running minimum: folding the new snippet's elements in
	// is equivalent to re-signing the union. When the fold leaves the
	// signature unchanged — the common case once a story's element set has
	// converged — the index's buckets are still exact and re-adding would
	// only churn them.
	if id.foldSnippetElems(sig, s) {
		id.lsh.Add(uint64(sid), sig)
	}
}

func (id *Identifier) reindexStory(st *event.Story) {
	if id.lsh == nil || st == nil {
		return
	}
	// Removal invalidates the running-minimum signature; re-sign fully.
	id.indexStory(st)
}

func (id *Identifier) dropStory(sid event.StoryID) {
	delete(id.stories, sid)
	delete(id.winCache, sid)
	if id.lsh != nil {
		id.lsh.Remove(uint64(sid))
		delete(id.sigs, sid)
	}
	// order keeps the stale ID (Stories() skips missing entries); compact
	// once stale entries dominate, or a long-running stream with heavy
	// merge repair would scan an ever-growing list per snippet.
	if len(id.order) > 2*len(id.stories)+16 {
		live := id.order[:0]
		for _, s := range id.order {
			if _, ok := id.stories[s]; ok {
				live = append(live, s)
			}
		}
		id.order = live
	}
}
