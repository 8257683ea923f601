// Package align implements StoryPivot's story alignment phase (paper
// §2.3): integrating per-source stories across data sources into
// integrated stories, classifying snippets as aligning vs enriching, and
// refining per-source identification results with cross-source evidence
// (paper Figure 1c/1d).
//
// The Aligner is incremental: stories can be upserted or removed one at a
// time and only their match edges are recomputed, which is what makes
// adding a new data source cheap (paper §2.1: "as new sources become
// available, we first identify the stories associated with them and then
// align them with existing stories").
package align

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/event"
	"repro/internal/extent"
	"repro/internal/similarity"
	"repro/internal/sketch"
	"repro/internal/vocab"
)

// Config parameterises alignment. Use DefaultConfig as the base.
type Config struct {
	// MatchThreshold is the minimum story-level similarity for two stories
	// of different sources to be aligned.
	MatchThreshold float64
	// Story configures the story-vs-story similarity kernel.
	Story similarity.StoryConfig
	// Slack widens the temporal-overlap candidate filter: stories whose
	// extents are further apart than this can never align. Alignment is
	// more temporally tolerant than identification (paper §4.1).
	Slack time.Duration
	// ComponentGuard scales MatchThreshold for the aggregate-similarity
	// merge guard (see Result): two components only merge when their
	// aggregates score at least ComponentGuard*MatchThreshold. Values
	// below 1 account for aggregate dilution; 0 disables the guard
	// (pure single-linkage, which snowballs at scale).
	ComponentGuard float64
	// GuardGrowth stiffens the guard as components grow: the effective
	// guard is ComponentGuard * (1 + GuardGrowth*ln(minMembers)), where
	// minMembers is the smaller component's member-story count. Larger
	// corpora produce more fragments per real story and more same-topic
	// near-misses, so the evidence bar for merging already-large
	// components must rise with their size; singleton merges keep the
	// base guard (ln 1 = 0).
	GuardGrowth float64

	// UseSketchFilter short-circuits candidate pairs through MinHash
	// signatures before computing the full similarity.
	UseSketchFilter bool
	// SketchThreshold is the minimum estimated entity-Jaccard for a
	// candidate pair to survive the sketch filter.
	SketchThreshold float64
	// SketchLength is the MinHash signature length.
	SketchLength int

	// RoleScale is the temporal tolerance when classifying a snippet as
	// "aligning" (it has a counterpart in another source within this
	// distance) versus "enriching".
	RoleScale time.Duration
	// RoleThreshold is the minimum snippet-snippet similarity for a
	// cross-source counterpart.
	RoleThreshold float64
	// Weights for snippet-level comparisons (roles, refinement).
	Weights similarity.Weights
	// UseEntityIDF weights entities by inverse mention frequency across
	// all upserted stories, mirroring the identification-side option.
	UseEntityIDF bool
}

// DefaultConfig returns the configuration used by the demo system.
func DefaultConfig() Config {
	return Config{
		MatchThreshold:  0.38,
		Story:           similarity.DefaultStoryConfig(),
		Slack:           7 * 24 * time.Hour,
		ComponentGuard:  0.9,
		GuardGrowth:     0.2,
		UseSketchFilter: false,
		SketchThreshold: 0.08,
		SketchLength:    64,
		RoleScale:       3 * 24 * time.Hour,
		RoleThreshold:   0.35,
		Weights:         similarity.DefaultWeights(),
		UseEntityIDF:    true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MatchThreshold <= 0 || c.MatchThreshold >= 1 {
		return fmt.Errorf("align: match threshold %g outside (0, 1)", c.MatchThreshold)
	}
	if c.Slack < 0 {
		return errors.New("align: slack must be >= 0")
	}
	if c.ComponentGuard < 0 || c.GuardGrowth < 0 {
		return errors.New("align: guard parameters must be >= 0")
	}
	if c.RoleScale <= 0 {
		return errors.New("align: role scale must be positive")
	}
	if c.RoleThreshold <= 0 || c.RoleThreshold >= 1 {
		return fmt.Errorf("align: role threshold %g outside (0, 1)", c.RoleThreshold)
	}
	if c.UseSketchFilter && c.SketchLength < 0 {
		return errors.New("align: sketch length must be >= 0")
	}
	return nil
}

// Match records one cross-source story pair that cleared the threshold.
type Match struct {
	A, B  event.StoryID
	Score float64
}

// Stats counts alignment work for the statistics module.
type Stats struct {
	CandidatePairs int // pairs surviving the temporal filter
	SketchSkipped  int // pairs rejected by the sketch filter
	Comparisons    int // story pairs scored against the match threshold
	Matches        int // pairs above threshold
	Regrouped      int // stories whose component Result recomputed
}

// Aligner maintains the cross-source story match graph incrementally.
// Not safe for concurrent use.
type Aligner struct {
	cfg Config

	stories map[event.StoryID]*event.Story
	order   []event.StoryID
	// edges holds match scores keyed by (min,max) story ID.
	edges map[[2]event.StoryID]float64
	// adj is the candidate graph: for each story, the stories it forms a
	// candidate pair with — every pair that passed the temporal (and
	// sketch) filters, including pairs that scored below threshold. The
	// lists are symmetric and are the only record of the pairs, so removing
	// a story costs its degree, not a scan of the corpus. Under IDF entity
	// weighting every score reads the statistics epoch (frozen below),
	// never the live counts, so an edge's score is a pure function of its
	// two stories and the epoch: upsert order cannot change it, and
	// re-upserting an unchanged story reproduces the edges it already has.
	adj map[event.StoryID][]event.StoryID
	// epochs counts the freezes, and lastScored is the live total at the
	// last one; the live total drifting more than 20% from it in either
	// direction (growth from upserts, shrinkage from source removal) makes
	// the next Result start a new epoch.
	epochs     int
	lastScored int

	hasher *sketch.MinHasher
	sigs   map[event.StoryID]sketch.Signature

	// extents keys each story by the time buckets its slack-widened
	// extent spans, for candidate retrieval.
	extents *extent.Index

	// live counts entity mentions over all upserted stories; it backs the
	// IDF entity weighting. frozen is the statistics epoch the weights are
	// read from: live's weights, tabulated by rescoreIfDrifted right before
	// it rescores the candidate pairs. Until the next freeze the weights do
	// not move however many stories arrive or leave; an entity unseen at
	// freeze time weighs as count 0.
	live     similarity.EntityIDF
	frozen   similarity.IDFTable
	storyCfg similarity.StoryConfig // cfg.Story plus the weighter

	// What Result keeps between passes. touched holds every story upserted
	// or removed since the last pass and every story that shared an
	// above-threshold edge with one, before or after the change: no other
	// story's edges moved. best holds each story's best above-threshold
	// edge into every other source as of the last pass; two stories are
	// reciprocal-best matches when each one's slot names the other. integ
	// (ascending ID) and honoured (merge order) are the last pass's
	// integrated stories and honoured matches, in slices no Result shares.
	// version is the last IntegratedStory.Version handed out.
	touched  map[event.StoryID]struct{}
	best     map[event.StoryID][]slot
	integ    []*event.IntegratedStory
	honoured []Match
	version  uint64

	stats Stats
}

// slot is a story's best above-threshold edge into one other source.
type slot struct {
	src   event.SourceID
	other event.StoryID
	score float64
}

// NewAligner creates an empty aligner.
func NewAligner(cfg Config) *Aligner {
	bw := cfg.Slack
	if bw <= 0 {
		bw = 7 * 24 * time.Hour
	}
	a := &Aligner{
		cfg:     cfg,
		stories: make(map[event.StoryID]*event.Story),
		edges:   make(map[[2]event.StoryID]float64),
		adj:     make(map[event.StoryID][]event.StoryID),
		extents: extent.New(bw, cfg.Slack),
		touched: make(map[event.StoryID]struct{}),
		best:    make(map[event.StoryID][]slot),
	}
	a.storyCfg = cfg.Story
	if cfg.UseEntityIDF {
		a.storyCfg.EntityWeight = a.frozen.Weight
	}
	if cfg.UseSketchFilter {
		n := cfg.SketchLength
		if n <= 0 {
			n = 64
		}
		a.hasher = sketch.NewMinHasher(n, 0xa11e)
		a.sigs = make(map[event.StoryID]sketch.Signature)
	}
	return a
}

// Stats returns a snapshot of the work counters.
func (a *Aligner) Stats() Stats { return a.stats }

// Len returns the number of stories under alignment.
func (a *Aligner) Len() int { return len(a.stories) }

// Holds reports whether the aligner holds story id at mutation counter
// gen. Re-upserting such a story would reproduce exactly the edges it
// already has (scores read the frozen epoch, not the live counts), so a
// caller may skip it.
func (a *Aligner) Holds(id event.StoryID, gen uint64) bool {
	st := a.stories[id]
	return st != nil && st.Gen() == gen
}

func edgeKey(x, y event.StoryID) [2]event.StoryID {
	if x > y {
		x, y = y, x
	}
	return [2]event.StoryID{x, y}
}

// Upsert adds a story to the aligner, or refreshes a story whose content
// changed, recomputing only that story's match edges. A story that has
// lost all its snippets is removed. The aligner keeps st itself and
// Result publishes it as an integrated-story member, so the caller must
// not mutate st afterwards (the stream engine hands over snapshots).
func (a *Aligner) Upsert(st *event.Story) {
	if st == nil {
		return
	}
	if st.Len() == 0 {
		a.Remove(st.ID)
		return
	}
	span := metUpsertLat.Start()
	defer span.End()
	startComparisons, startMatches := a.stats.Comparisons, a.stats.Matches
	startSkipped := a.stats.SketchSkipped
	defer func() {
		metComparisons.Add(uint64(a.stats.Comparisons - startComparisons))
		metMatches.Add(uint64(a.stats.Matches - startMatches))
		metSketchSkipped.Add(uint64(a.stats.SketchSkipped - startSkipped))
	}()
	if _, known := a.stories[st.ID]; known {
		a.removeInternal(st.ID)
	} else {
		a.order = append(a.order, st.ID)
	}
	a.touched[st.ID] = struct{}{}
	// Fill the lazy norm cache before any Result publishes st, so readers
	// of a published result only ever read it.
	st.CentroidNorm()
	a.stories[st.ID] = st
	for _, ec := range st.EntityFreq {
		a.live.Add(ec.ID, ec.N)
	}
	a.extents.Add(st.ID, st.Start, st.End)
	var sig sketch.Signature
	if a.hasher != nil {
		sig = a.hasher.Sign(entityElems(st))
		a.sigs[st.ID] = sig
	}
	// Score against candidates from different sources in shared buckets.
	// A story sits in a contiguous run of buckets, so a pair is handled
	// only in the first bucket both runs share.
	own := a.adj[st.ID]
	lo, hi := a.extents.Span(st.Start, st.End)
	for b := lo; b <= hi; b++ {
		for _, oid := range a.extents.Bucket(b) {
			other := a.stories[oid]
			if other == nil || other.Source == st.Source {
				continue
			}
			if otherLo, _ := a.extents.Span(other.Start, other.End); b != max(lo, otherLo) {
				continue
			}
			if !st.Overlaps(other, a.cfg.Slack) {
				continue
			}
			a.stats.CandidatePairs++
			if a.hasher != nil {
				if sketch.Estimate(sig, a.sigs[oid]) < a.cfg.SketchThreshold {
					a.stats.SketchSkipped++
					continue
				}
			}
			own = append(own, oid)
			a.adj[oid] = append(a.adj[oid], st.ID)
			score, ok := similarity.Stories(st, other, a.storyCfg, a.cfg.MatchThreshold)
			a.stats.Comparisons++
			if ok {
				a.edges[edgeKey(st.ID, oid)] = score
				a.touched[oid] = struct{}{}
				a.stats.Matches++
			}
		}
	}
	if len(own) > 0 {
		a.adj[st.ID] = own
	}
}

// Remove deletes a story and its edges from the aligner.
func (a *Aligner) Remove(id event.StoryID) {
	if _, ok := a.stories[id]; !ok {
		return
	}
	a.removeInternal(id)
	a.touched[id] = struct{}{}
	delete(a.stories, id)
	delete(a.adj, id)
	// Drop the ID from the insertion order here, not lazily: a stale entry
	// would list the story twice once it is upserted again.
	for i, s := range a.order {
		if s == id {
			a.order = append(a.order[:i], a.order[i+1:]...)
			break
		}
	}
}

// RemoveSource removes every story of source src.
func (a *Aligner) RemoveSource(src event.SourceID) {
	for _, id := range slices.Clone(a.order) {
		if a.stories[id].Source == src {
			a.Remove(id)
		}
	}
}

// removeInternal clears indexes and edges but keeps the story's place in
// the insertion order and the capacity of its neighbour list, which a
// re-upsert refills. It marks the stories it drops a match edge to as
// touched.
func (a *Aligner) removeInternal(id event.StoryID) {
	st := a.stories[id]
	if st != nil {
		for _, ec := range st.EntityFreq {
			a.live.Add(ec.ID, -ec.N)
		}
		a.extents.Remove(id, st.Start, st.End)
	}
	if nbrs := a.adj[id]; len(nbrs) > 0 {
		for _, o := range nbrs {
			k := edgeKey(id, o)
			if _, matched := a.edges[k]; matched {
				a.touched[o] = struct{}{}
				delete(a.edges, k)
			}
			a.adj[o] = extent.DropID(a.adj[o], id)
		}
		a.adj[id] = nbrs[:0]
	}
	if a.sigs != nil {
		delete(a.sigs, id)
	}
}

// rescoreIfDrifted starts a new statistics epoch when the live entity
// statistics have drifted materially from the frozen ones (and on the
// first Result): it tabulates the live weights into the frozen table,
// rescores the candidate pairs against it and marks every story touched,
// so the Result that follows regroups them all. A pair whose stories share
// no entity counted in both keeps its edge, or its absence: its entity
// term is 0 under any weights, so its score cannot move. Between two
// epochs every score — from Upsert, from this rescan, from the merge guard
// — reads the same frozen table, so the edges are a pure function of the
// resident stories and the epoch, whatever order the stories arrived in.
//
// The pairs are scored on every core: worker w takes every workers-th
// story of the insertion order and scores the pairs whose smaller
// endpoint it is. The workers only read the aligner, and the edges they
// change are written afterwards in one serial pass.
func (a *Aligner) rescoreIfDrifted() {
	if a.storyCfg.EntityWeight == nil {
		return // uniform weights never drift
	}
	lo, hi := a.lastScored-a.lastScored/5, a.lastScored+a.lastScored/5
	if total := a.live.Total(); a.epochs > 0 && total >= lo && total <= hi {
		return
	}
	a.frozen = a.live.Tabulate(a.frozen)
	workers := max(1, min(runtime.GOMAXPROCS(0), (len(a.order)+rescorePerWorker-1)/rescorePerWorker))
	scored, changed := make([]int, workers), make([][]rescored, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scored[w], changed[w] = a.rescorePart(w, workers)
		}()
	}
	scored[0], changed[0] = a.rescorePart(0, workers)
	wg.Wait()
	for w := range workers {
		a.stats.Comparisons += scored[w]
		for _, r := range changed[w] {
			if r.ok {
				a.edges[r.key] = r.score
			} else {
				delete(a.edges, r.key)
			}
		}
	}
	for id := range a.stories {
		a.touched[id] = struct{}{}
	}
	a.epochs++
	a.lastScored = a.live.Total()
}

// rescorePerWorker is the number of stories that brings one more worker
// to an epoch rescore: an aligner of up to this many stories rescores on
// the calling goroutine alone.
const rescorePerWorker = 64

// rescored is a candidate pair whose edge an epoch rescore changes: it
// gets score, or with ok false, loses its edge.
type rescored struct {
	key   [2]event.StoryID
	score float64
	ok    bool // the score reaches the match threshold
}

// rescorePart scores, against the frozen epoch, the candidate pairs that
// share a counted entity and whose smaller endpoint is one of every
// workers-th story of the insertion order, from the w-th on. It returns
// how many it scored and those whose edge the scores change.
func (a *Aligner) rescorePart(w, workers int) (scored int, changed []rescored) {
	for i := w; i < len(a.order); i += workers {
		id := a.order[i]
		x := a.stories[id]
		for _, o := range a.adj[id] {
			if id > o {
				continue // each pair once, from its smaller endpoint
			}
			y := a.stories[o]
			if !sharesCountedEntity(x.EntityFreq, y.EntityFreq) {
				continue
			}
			k := [2]event.StoryID{id, o}
			score, ok := similarity.Stories(x, y, a.storyCfg, a.cfg.MatchThreshold)
			scored++
			if old, had := a.edges[k]; ok != had || (ok && old != score) {
				changed = append(changed, rescored{k, score, ok})
			}
		}
	}
	return scored, changed
}

// sharesCountedEntity reports whether two entity frequency vectors hold an
// entity with a nonzero count in both: without one, their weighted Jaccard
// has an empty intersection whatever the weights.
func sharesCountedEntity(a, b []vocab.IDCount) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].ID == b[j].ID:
			if a[i].N > 0 && b[j].N > 0 {
				return true
			}
			i++
			j++
		case a[i].ID < b[j].ID:
			i++
		default:
			j++
		}
	}
	return false
}

// Matches returns every raw above-threshold match edge sorted by
// descending score — the candidate set before reciprocal-best filtering
// (Result reports the filtered set it actually integrated on).
func (a *Aligner) Matches() []Match {
	out := make([]Match, 0, len(a.edges))
	for k, s := range a.edges {
		out = append(out, Match{A: k[0], B: k[1], Score: s})
	}
	slices.SortFunc(out, byScore)
	return out
}

// byScore orders matches strongest first, then by (A, B).
func byScore(x, y Match) int {
	if x.Score != y.Score {
		if x.Score > y.Score {
			return -1
		}
		return 1
	}
	if x.A != y.A {
		return cmp.Compare(x.A, y.A)
	}
	return cmp.Compare(x.B, y.B)
}

// bestEdges refills buf with story id's best above-threshold edge into
// each other source: the highest score, ties to the smaller story ID.
// Result integrates on reciprocal best matches only — an edge (A, B)
// whose B is A's best in B's source and vice versa. Raw thresholding
// alone lets thematically related but distinct stories (stories of the
// same topic family) chain transitively into giant components; reciprocal
// matching is the selectivity that keeps components story-sized while a
// real counterpart — which is almost always the mutual best match —
// still aligns.
func (a *Aligner) bestEdges(id event.StoryID, buf []slot) []slot {
	for _, o := range a.adj[id] {
		score, ok := a.edges[edgeKey(id, o)]
		if !ok {
			continue
		}
		src := a.stories[o].Source
		i := slices.IndexFunc(buf, func(s slot) bool { return s.src == src })
		switch {
		case i < 0:
			buf = append(buf, slot{src, o, score})
		case score > buf[i].score || (score == buf[i].score && o < buf[i].other):
			buf[i] = slot{src, o, score}
		}
	}
	return buf
}

// mutual reports whether y's best edge into x's source leads to x, that
// is, whether an edge from x's best slot to y is reciprocal.
func (a *Aligner) mutual(x, y event.StoryID) bool {
	for _, s := range a.best[y] {
		if s.other == x {
			return true
		}
	}
	return false
}

// RetirableSets computes which stories the retirement policy may evict,
// grouped into co-retirement sets. cold classifies a story (typically:
// no evidence for the retirement window, by event time); sameSourcePad
// is the identification window ω, guarding the identifier's repair-merge
// reachability — a negative pad disables the same-source guard (the
// caller runs without incremental repair).
//
// A set is a connected component of the candidate graph restricted to
// edges that can still matter: every above-threshold match edge, plus
// below-threshold candidate pairs with at least one warm endpoint (a warm
// story may be re-upserted with new evidence and rescore the pair across
// the threshold; a cold–cold below-threshold pair is inert because neither
// side will be re-upserted while cold). A component is retirable only when
// every member is cold and no member is within sameSourcePad of a warm
// story of its own source. Removing such a component cannot change the
// alignment of the remaining stories: no live edge crosses the cut, so the
// reciprocal-best filter and the component merge guard see exactly the
// edges they would have seen with the cold component present. (Under IDF
// entity weighting the global statistics do shift — the documented
// equivalence caveat, same as sharding; see DESIGN.md.)
//
// Sets of held snapshots are returned in deterministic insertion order.
func (a *Aligner) RetirableSets(cold func(*event.Story) bool, sameSourcePad time.Duration) [][]*event.Story {
	if len(a.stories) == 0 {
		return nil
	}
	coldSet := make(map[event.StoryID]bool, len(a.stories))
	// warmMinStart tracks, per source, the earliest extent start among warm
	// stories: a cold story ending within sameSourcePad of it could still
	// be merged with live same-source state by identifier repair, so it
	// stays resident.
	warmMinStart := make(map[event.SourceID]time.Time)
	for id, st := range a.stories {
		if cold(st) {
			coldSet[id] = true
			continue
		}
		cur, ok := warmMinStart[st.Source]
		if !ok || st.Start.Before(cur) {
			warmMinStart[st.Source] = st.Start
		}
	}
	if len(coldSet) == 0 {
		return nil
	}
	parent := make(map[event.StoryID]event.StoryID, len(a.stories))
	var find func(event.StoryID) event.StoryID
	find = func(x event.StoryID) event.StoryID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for id := range a.stories {
		parent[id] = id
	}
	for id, nbrs := range a.adj {
		for _, o := range nbrs {
			if id > o {
				continue // each pair once, from its smaller endpoint
			}
			if coldSet[id] && coldSet[o] {
				if _, matched := a.edges[[2]event.StoryID{id, o}]; !matched {
					// A below-threshold pair between two cold stories is
					// inert: a score only changes when an endpoint is
					// re-upserted, and new evidence would make that endpoint
					// warm first. Traversing such edges would chain long runs
					// of unrelated cold stories to a warm component and pin
					// them all resident. (Under IDF weighting a drift rescore
					// could still flip the pair, but a merge of two cold
					// stories lies wholly outside the active window — the
					// documented IDF equivalence caveat.)
					continue
				}
			}
			parent[find(id)] = find(o)
		}
	}
	members := make(map[event.StoryID][]*event.Story, len(a.stories))
	retirable := make(map[event.StoryID]bool, len(a.stories))
	var rootOrder []event.StoryID
	for _, id := range a.order {
		st := a.stories[id]
		r := find(id)
		if _, seen := members[r]; !seen {
			rootOrder = append(rootOrder, r)
			retirable[r] = true
		}
		members[r] = append(members[r], st)
		if !coldSet[id] {
			retirable[r] = false
			continue
		}
		if sameSourcePad < 0 {
			continue
		}
		if warmStart, ok := warmMinStart[st.Source]; ok && !st.End.Add(sameSourcePad).Before(warmStart) {
			retirable[r] = false
		}
	}
	var out [][]*event.Story
	for _, r := range rootOrder {
		if retirable[r] {
			out = append(out, members[r])
		}
	}
	return out
}

// component aggregates the contents of an in-progress integrated story
// during guarded merging.
type component struct {
	ents       []vocab.IDCount
	centroid   []vocab.IDWeight
	start, end time.Time
	members    int  // member stories, for the size-adaptive guard
	shared     bool // ents and centroid are still its one story's vectors
}

// absorb merges other into c, copying c's vectors first if they are a
// story's.
func (c *component) absorb(other *component) {
	if c.shared {
		c.ents = append(make([]vocab.IDCount, 0, len(c.ents)+len(other.ents)), c.ents...)
		c.centroid = append(make([]vocab.IDWeight, 0, len(c.centroid)+len(other.centroid)), c.centroid...)
		c.shared = false
	}
	c.ents = vocab.AddCounts(c.ents, other.ents)
	c.centroid = vocab.AddWeights(c.centroid, other.centroid)
	if other.start.Before(c.start) {
		c.start = other.start
	}
	if other.end.After(c.end) {
		c.end = other.end
	}
	c.members += other.members
}

// similar scores two component aggregates with the same entity/description
// /temporal combination used for stories. This is the merge guard: it
// makes integration behave like average-linkage clustering instead of
// single-linkage, so fragmented same-topic stories cannot chain arbitrary
// components together (single-linkage over reciprocal edges still
// snowballs at scale).
func (a *Aligner) componentsSimilar(x, y *component) bool {
	w := a.cfg.Story.Weights.Normalized()
	sim := w.Entity * similarity.WeightedJaccardIDSets(x.ents, y.ents, a.storyCfg.EntityWeight)
	sim += w.Description * similarity.CosineIDs(x.centroid, y.centroid)
	var gap time.Duration
	switch {
	case x.end.Before(y.start):
		gap = y.start.Sub(x.end)
	case y.end.Before(x.start):
		gap = x.start.Sub(y.end)
	}
	sim += w.Temporal * similarity.GapDecay(gap, a.cfg.Story.GapScale)
	guard := a.cfg.ComponentGuard
	if a.cfg.GuardGrowth > 0 {
		min := x.members
		if y.members < min {
			min = y.members
		}
		guard *= 1 + a.cfg.GuardGrowth*math.Log(float64(min))
	}
	return sim >= guard*a.cfg.MatchThreshold
}

// Result computes the integrated story set: components grown from the
// reciprocal-best match graph under the aggregate-similarity merge guard,
// with every unmatched story becoming a singleton integrated story (paper
// §2.3: stories that appear in only one source remain in the result).
// Snippet roles are classified per component.
//
// A pass regroups only what changed since the last one. The guarded
// merges inside one connected component of the reciprocal-edge graph read
// only that component's edges, in score order, and its own aggregates, so
// a component without a touched story groups exactly as it did. The pass
// reruns the merges over the components, old and new, of every touched
// story (regroupRegion) and keeps every other integrated story and
// honoured match of the last pass. An integrated story whose member
// pointers are unchanged is kept, roles, Version and all, even inside a
// recomputed component; every other one is new and takes the next
// version. Only the last pass's stories can be kept, so a story dropped
// from a result never comes back. A new statistics epoch touches every
// story, so its pass regroups them all.
//
// Every Result has its own Integrated and Matches slices, so no caller can
// reach the aligner's merge state through them. Neither is written after
// it is returned, by the aligner or by a caller: the stream engine hands
// one Result to every sink and reader. The integrated stories, their
// Roles and their members are shared with the aligner and with every
// other Result that holds them: they are read-only. Members
// are the upserted stories themselves, not copies. They stay valid after
// the live stories change, because Upsert's caller hands over a story it
// no longer mutates (the stream engine's snapshots), and a re-upsert
// replaces the aligner's pointer rather than writing through it.
func (a *Aligner) Result() *Result {
	span := metResultLat.Start()
	defer span.End()
	startComparisons := a.stats.Comparisons
	defer func() {
		metComparisons.Add(uint64(a.stats.Comparisons - startComparisons))
	}()
	a.rescoreIfDrifted()
	region, at := a.regroupRegion()
	fresh, honoured := a.regroup(region, at)
	regrouped := func(id event.StoryID) bool {
		_, ok := at[id]
		return ok
	}
	// The region is a union of the last pass's components, so each kept
	// integrated story and match lies wholly inside it or wholly outside.
	a.integ = keepMerge(a.integ, fresh, func(is *event.IntegratedStory) bool { return regrouped(is.Members[0].ID) }, byID)
	a.honoured = keepMerge(a.honoured, honoured, func(m Match) bool { return regrouped(m.A) }, byScore)

	res := &Result{Matches: slices.Clone(a.honoured)}
	if len(a.integ) > 0 {
		res.Integrated = slices.Clone(a.integ)
	}
	return res
}

// regroup runs the guarded merge over the region's stories and returns
// its integrated stories in ascending ID order and the reciprocal matches
// it honoured (both endpoints ended up in the same component), strongest
// first.
func (a *Aligner) regroup(region []event.StoryID, at map[event.StoryID]int32) ([]*event.IntegratedStory, []Match) {
	// Union-find over region positions with per-root component aggregates.
	// A removed story keeps its position but has no aggregate and no edge:
	// it only brought its old component into the region.
	parent := make([]int32, len(region))
	comps := make([]component, len(region))
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	live := make([]int32, 0, len(region))
	var recip []Match
	for i, id := range region {
		parent[i] = int32(i)
		st := a.stories[id]
		if st == nil {
			continue
		}
		live = append(live, int32(i))
		comps[i] = component{ents: st.EntityFreq, centroid: st.Centroid, start: st.Start, end: st.End,
			members: 1, shared: true}
		for _, s := range a.best[id] {
			if id < s.other && a.mutual(id, s.other) {
				recip = append(recip, Match{A: id, B: s.other, Score: s.score})
			}
		}
	}
	a.stats.Regrouped += len(live)
	// Strongest matches first, so the guard evaluates high-confidence
	// merges before aggregates drift.
	slices.SortFunc(recip, byScore)
	for _, m := range recip {
		ra, rb := find(at[m.A]), find(at[m.B])
		if ra == rb {
			continue
		}
		ca, cb := &comps[ra], &comps[rb]
		if a.cfg.ComponentGuard > 0 && !a.componentsSimilar(ca, cb) {
			continue
		}
		// Absorb the smaller aggregate into the larger.
		if len(cb.centroid) > len(ca.centroid) {
			ra, rb = rb, ra
			ca, cb = cb, ca
		}
		ca.absorb(cb)
		parent[rb] = ra
	}
	for _, i := range live {
		parent[i] = find(i)
	}
	honoured := recip[:0]
	for _, m := range recip {
		if parent[at[m.A]] == parent[at[m.B]] {
			honoured = append(honoured, m)
		}
	}

	// Integrated IDs are content-derived: a component's ID is its
	// smallest member story ID. That makes the ID a pure function of the
	// grouping — deterministic across processes, which is what lets a
	// sharded deployment produce byte-identical results to a single node
	// — while keeping the stability downstream consumers (the demo's
	// /api/integrated/{id} links, the stamp-checked query cache) rely on: the
	// ID only moves when a regrouping actually gains or loses the
	// smallest member. IDs are unique within a pass because components
	// partition the member stories. Results list them in ascending
	// IntegratedID order, so the query index pairs a result with the
	// last one in a single merge walk.
	slices.SortFunc(live, func(x, y int32) int { return cmp.Compare(parent[x], parent[y]) })
	var fresh []*event.IntegratedStory
	var group []*event.Story
	for lo := 0; lo < len(live); {
		r := parent[live[lo]]
		group = group[:0]
		for ; lo < len(live) && parent[live[lo]] == r; lo++ {
			group = append(group, a.stories[region[live[lo]]])
		}
		id := event.IntegratedID(minStoryID(group))
		if i, ok := slices.BinarySearchFunc(a.integ, id, func(is *event.IntegratedStory, id event.IntegratedID) int {
			return cmp.Compare(is.ID, id)
		}); ok && a.holdsGroup(a.integ[i], group, r, parent, at) {
			fresh = append(fresh, a.integ[i])
			continue
		}
		is := event.NewIntegratedStory(id, group)
		classifyRoles(is, a.cfg)
		fresh = append(fresh, is)
	}
	slices.SortFunc(fresh, byID)
	// Version the new stories in ID order, so the numbers do not depend on
	// the region's map-ordered start.
	for _, is := range fresh {
		if is.Version == 0 {
			a.version++
			is.Version = a.version
		}
	}
	return fresh, honoured
}

// regroupRegion returns the stories this pass regroups, with each one's
// position in the list: every touched story and every story it reaches
// over reciprocal-best edges, in the last pass's graph and in the current
// one. Both graphs differ only in edges at a touched story, so a component
// without one is the same in both, and the union holds every other
// component of either graph whole. On the way it brings the touched
// stories' best-edge slots up to date.
func (a *Aligner) regroupRegion() ([]event.StoryID, map[event.StoryID]int32) {
	at := make(map[event.StoryID]int32, len(a.touched))
	var region []event.StoryID
	enter := func(id event.StoryID) {
		if _, ok := at[id]; !ok {
			at[id] = int32(len(region))
			region = append(region, id)
		}
	}
	flood := func() {
		for i := 0; i < len(region); i++ {
			x := region[i]
			for _, s := range a.best[x] {
				if a.mutual(x, s.other) {
					enter(s.other)
				}
			}
		}
	}
	for id := range a.touched {
		enter(id)
	}
	flood() // the last pass's graph: the slots are still its own
	for id := range a.touched {
		if b := a.bestEdges(id, a.best[id][:0]); len(b) > 0 {
			a.best[id] = b
		} else {
			delete(a.best, id)
		}
	}
	clear(a.touched)
	flood() // the current graph, from everything the last one reached
	return region, at
}

// holdsGroup reports whether old, an integrated story of the last pass,
// has exactly the stories of group, those under root r, as its members.
func (a *Aligner) holdsGroup(old *event.IntegratedStory, group []*event.Story, r int32, parent []int32, at map[event.StoryID]int32) bool {
	if len(old.Members) != len(group) {
		return false
	}
	for _, m := range old.Members {
		p, ok := at[m.ID]
		if !ok || a.stories[m.ID] != m || parent[p] != r {
			return false
		}
	}
	return true
}

func byID(x, y *event.IntegratedStory) int { return cmp.Compare(x.ID, y.ID) }

// keepMerge returns, in a new slice, the entries of kept that drop does
// not reject merged with fresh; both are sorted by cmp.
func keepMerge[T any](kept, fresh []T, drop func(T) bool, cmp func(T, T) int) []T {
	out := make([]T, 0, len(kept)+len(fresh))
	j := 0
	for _, x := range kept {
		if drop(x) {
			continue
		}
		for ; j < len(fresh) && cmp(fresh[j], x) < 0; j++ {
			out = append(out, fresh[j])
		}
		out = append(out, x)
	}
	return append(out, fresh[j:]...)
}

func minStoryID(sts []*event.Story) event.StoryID {
	min := sts[0].ID
	for _, st := range sts[1:] {
		if st.ID < min {
			min = st.ID
		}
	}
	return min
}

func entityElems(st *event.Story) []string {
	elems := make([]string, 0, len(st.EntityFreq))
	for _, ec := range st.EntityFreq {
		elems = append(elems, vocab.Entities.String(ec.ID))
	}
	return elems
}

// Result is the outcome of story alignment.
type Result struct {
	Integrated []*event.IntegratedStory
	Matches    []Match
}

// IntegratedOf returns the integrated story containing the given
// per-source story, or nil. It walks every member of the result.
func (r *Result) IntegratedOf(id event.StoryID) *event.IntegratedStory {
	for _, is := range r.Integrated {
		for _, m := range is.Members {
			if m.ID == id {
				return is
			}
		}
	}
	return nil
}

// MultiSource returns only the integrated stories spanning at least two
// sources.
func (r *Result) MultiSource() []*event.IntegratedStory {
	var out []*event.IntegratedStory
	for _, is := range r.Integrated {
		if multiSource(is) {
			out = append(out, is)
		}
	}
	return out
}

func multiSource(is *event.IntegratedStory) bool {
	for _, m := range is.Members {
		if m.Source != is.Members[0].Source {
			return true
		}
	}
	return false
}

// classifyRoles marks each snippet of the integrated story as aligning
// (it has a sufficiently similar, temporally close counterpart in another
// source) or enriching (source-exclusive content such as special reports;
// paper §2.3).
func classifyRoles(is *event.IntegratedStory, cfg Config) {
	if len(is.Members) < 2 {
		for _, m := range is.Members {
			for _, sn := range m.Snippets {
				is.Roles[sn.ID] = event.RoleEnriching
			}
		}
		return
	}
	all := is.Snippets() // chronological
	for i, sn := range all {
		role := event.RoleEnriching
		// Scan outward in time until the role tolerance is exceeded.
		for j := i - 1; j >= 0; j-- {
			if sn.Timestamp.Sub(all[j].Timestamp) > cfg.RoleScale {
				break
			}
			if all[j].Source != sn.Source &&
				similarity.Snippets(sn, all[j], cfg.RoleScale, cfg.Weights) >= cfg.RoleThreshold {
				role = event.RoleAligning
				break
			}
		}
		if role == event.RoleEnriching {
			for j := i + 1; j < len(all); j++ {
				if all[j].Timestamp.Sub(sn.Timestamp) > cfg.RoleScale {
					break
				}
				if all[j].Source != sn.Source &&
					similarity.Snippets(sn, all[j], cfg.RoleScale, cfg.Weights) >= cfg.RoleThreshold {
					role = event.RoleAligning
					break
				}
			}
		}
		is.Roles[sn.ID] = role
	}
}

// Align is the batch convenience: build an aligner over all per-source
// story sets and return the integrated result, whose members are the
// given stories themselves (see Result).
func Align(bySource map[event.SourceID][]*event.Story, cfg Config) *Result {
	a := NewAligner(cfg)
	// Deterministic insertion order: sources sorted, stories by ID.
	srcs := make([]event.SourceID, 0, len(bySource))
	for s := range bySource {
		srcs = append(srcs, s)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	for _, s := range srcs {
		sts := append([]*event.Story(nil), bySource[s]...)
		sort.Slice(sts, func(i, j int) bool { return sts[i].ID < sts[j].ID })
		for _, st := range sts {
			a.Upsert(st)
		}
	}
	return a.Result()
}
