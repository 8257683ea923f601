// Package stream implements StoryPivot's dynamic integration of story
// identification and story alignment (paper §2.4): snippets arrive
// continuously — and not necessarily in timestamp order — from a changing
// set of data sources; the engine routes each snippet through its source's
// incremental identifier, which records every story it creates, changes or
// drops, and a settle re-aligns exactly those dirty stories, so users
// always see near-real-time integrated stories.
package stream

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/event"
	"repro/internal/identify"
)

// Options configures an Engine.
type Options struct {
	// Identify configures the per-source identifiers.
	Identify identify.Config
	// Align configures the shared aligner.
	Align align.Config
	// Refine configures refinement; applied when RefineOnAlign is true.
	Refine align.RefineConfig
	// RefineOnAlign runs a refinement pass after every (re-)alignment.
	RefineOnAlign bool
	// AutoAlignEvery re-aligns automatically after this many ingested
	// snippets (0 disables; callers then call Align explicitly).
	AutoAlignEvery int
}

// DefaultOptions mirrors the demo system's configuration.
func DefaultOptions() Options {
	return Options{
		Identify:       identify.DefaultConfig(),
		Align:          align.DefaultConfig(),
		Refine:         align.DefaultRefineConfig(),
		RefineOnAlign:  false,
		AutoAlignEvery: 0,
	}
}

// ResultSink consumes every freshly computed alignment result. The
// query-serving index (internal/index) implements it; the engine
// publishes synchronously from every alignment pass — ingest-triggered,
// auto-align, explicit Align, and post-refinement re-alignment — so a
// sink always reflects the result the engine would hand to readers.
type ResultSink interface {
	Publish(res *align.Result)
}

// Retirer is the story lifecycle hook (implemented by retire.Manager):
// it decides when resident stories go cold, archives them durably before
// the engine detaches them, and hands back archived stories that new
// evidence reactivates. The engine calls Due/Cold/Archive/Commit/Abort
// under its own mutex during alignment passes and TakeForSnippet from
// the lock-free prefix of Ingest; implementations synchronise
// internally and must never call back into the engine.
type Retirer interface {
	// Due reports whether a retirement walk should run, given the
	// resident story count and the event-time watermark. Called on every
	// alignment publish (also serving as the watermark feed).
	Due(resident int, watermark time.Time) bool
	// Cold reports whether a story whose last evidence is at end is
	// retirable at the given watermark.
	Cold(id event.StoryID, end, watermark time.Time) bool
	// Archive durably persists a retirement group, returning a ticket.
	Archive(stories []*event.Story, watermark time.Time) (uint64, error)
	// Commit finalises a ticket with the members actually detached.
	Commit(ticket uint64, retired []event.StoryID)
	// Abort discards a ticket none of whose members could be detached.
	Abort(ticket uint64)
	// TakeForSnippet returns archived stories (whole retirement groups)
	// the snippet is evidence for, removing them from the archive index.
	TakeForSnippet(sn *event.Snippet) []*event.Story
	// ForgetSource drops a removed source's archived stories.
	ForgetSource(src event.SourceID)
	// ArchivedIDs lists a source's archived story IDs for checkpoints.
	ArchivedIDs(src event.SourceID) []event.StoryID
}

// Errors returned by the engine.
var (
	// ErrUnknownSource is returned by Ingest when the snippet's source was
	// never added (or was removed) and auto-registration is off.
	ErrUnknownSource = errors.New("stream: unknown source")
	// ErrDuplicate is returned for a snippet its source's identifier has
	// already assigned to a story.
	ErrDuplicate = errors.New("stream: duplicate snippet delivery")
	// ErrSourceCollision is returned when a source's deterministic
	// ID-namespace tag (identify.SourceTag) collides with an already
	// registered source. The probability is ~k²/2^23 for k sources;
	// renaming the source resolves it. Refusing beats remapping, which
	// would depend on registration order and break the determinism the
	// cluster's differential proofs rely on.
	ErrSourceCollision = errors.New("stream: source ID-namespace collision")
)

// shard is one source's slice of the engine: the identifier, guarded by
// its own mutex so sources ingest in parallel. Identification is
// per-source by construction (paper §2.2), which makes the source the
// natural sharding key: two snippets of different sources share no
// identifier state at all. The identifier also answers duplicate
// delivery: a snippet it has already assigned is a redelivery.
type shard struct {
	mu sync.Mutex
	id *identify.Identifier
	// gone is set (under mu) when RemoveSource detaches the shard; an
	// Ingest that raced the removal re-resolves the registry instead of
	// processing into a dead identifier.
	gone bool
	// err, when set at registration, poisons the shard: Ingest refuses
	// every snippet with it (currently only ErrSourceCollision).
	err error
}

// Engine is the live StoryPivot pipeline. It is safe for concurrent use.
// Ingestion is sharded per source: each source's identifier sits behind a
// per-shard mutex, so a multi-source feed ingests on all cores; only the
// narrow shared section (aligner, dirty set) is serialised behind the
// engine mutex. Readers take none of these: the last published result is
// an atomic pointer (Published) and the dataset statistics sit behind
// their own small lock. Lock order, for any path that holds more than
// one: mu → regMu → shard.mu, and mu → stats.mu.
type Engine struct {
	opts Options

	// regMu guards the shard registry and the allocator/tag tables. The
	// common Ingest path takes only the read lock; the write lock is held
	// for source add/remove.
	regMu  sync.RWMutex
	shards map[event.SourceID]*shard

	// allocs holds each source's deterministic ID allocator. Entries are
	// deliberately kept across RemoveSource: a re-registered source must
	// continue its sequence, never recycle story IDs — consumers that
	// skip a story they hold at the same (story, gen) (the query index's
	// member snapshots until the next publish, the refiner's memos) may
	// outlive the removal, and a recycled ID whose Gen matches would be
	// taken for the removed story.
	allocs map[event.SourceID]*identify.IDAlloc
	// tagOwner maps an ID-namespace tag to the source that claimed it,
	// for collision detection (see ErrSourceCollision). Like allocs it
	// survives RemoveSource: the removed source's IDs remain reserved.
	tagOwner map[uint32]event.SourceID

	// mu guards the shared section: the aligner, the refiner, the dirty
	// bookkeeping and the sinks. A settle holds it throughout.
	mu      sync.Mutex
	aligner *align.Aligner
	// refiner runs every refinement pass. It keeps the last pass's plans,
	// so a pass re-plans only what changed since.
	refiner *align.Refiner
	// dirty holds, per source whose identifier has recorded stories the
	// aligner has not reconciled, how many it recorded (Pending).
	dirty map[event.SourceID]int

	sinceAlign int
	// stale records that the published result still holds stories the
	// aligner no longer has (RemoveSource), so the next Result must
	// re-align even with nothing dirty.
	stale bool
	// published is the final result of the last settle, stored after every
	// sink has published it. Readers load it without mu (Published).
	published atomic.Pointer[align.Result]
	// sinks receive every freshly computed result, in attach order
	// (guarded by mu). Slot 0 is reserved for the primary sink set via
	// SetResultSink (the query index; primary tracks whether that slot is
	// occupied); AddResultSink appends after it, so secondary consumers
	// always observe a state the index has already incorporated.
	sinks   []ResultSink
	primary bool

	// retirer, when set, bounds resident memory: see Retirer. Written
	// once during pipeline wiring, before concurrent use.
	retirer Retirer

	stats datasetStats
}

// datasetStats holds the statistics module's dataset panel: how many
// snippets were accepted, how many distinct entities they mention, and the
// time range they cover. It has its own lock, so a reader never waits for
// a settle holding Engine.mu.
type datasetStats struct {
	mu       sync.Mutex
	ingested uint64
	// entSeen has bit i set once an accepted snippet mentions entity
	// symbol i (see internal/vocab); entities counts the set bits.
	entSeen         []uint64
	entities        uint64
	firstTS, lastTS time.Time
}

// add counts one accepted snippet, by its interned EntityIDs.
func (d *datasetStats) add(s *event.Snippet) {
	s.EnsureInterned()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ingested++
	for _, id := range s.EntityIDs {
		w, bit := int(id/64), uint64(1)<<(id%64)
		for len(d.entSeen) <= w {
			d.entSeen = append(d.entSeen, 0)
		}
		if d.entSeen[w]&bit == 0 {
			d.entSeen[w] |= bit
			d.entities++
		}
	}
	if d.firstTS.IsZero() || s.Timestamp.Before(d.firstTS) {
		d.firstTS = s.Timestamp
	}
	if s.Timestamp.After(d.lastTS) {
		d.lastTS = s.Timestamp
	}
}

// NewEngine creates an engine with no sources.
func NewEngine(opts Options) *Engine {
	return &Engine{
		opts:     opts,
		shards:   make(map[event.SourceID]*shard),
		allocs:   make(map[event.SourceID]*identify.IDAlloc),
		tagOwner: make(map[uint32]event.SourceID),
		aligner:  align.NewAligner(opts.Align),
		refiner:  align.NewRefiner(opts.Refine),
		dirty:    make(map[event.SourceID]int),
	}
}

// AddSource registers a data source. Adding an existing source is a no-op.
// Snippets for unregistered sources are auto-registered by Ingest, so
// explicit AddSource is only needed to pre-create empty sources.
func (e *Engine) AddSource(src event.SourceID) {
	e.shard(src)
}

// lookupShard returns the source's shard or nil, taking only the registry
// read lock.
func (e *Engine) lookupShard(src event.SourceID) *shard {
	e.regMu.RLock()
	sh := e.shards[src]
	e.regMu.RUnlock()
	return sh
}

// shard returns the source's shard, creating it on first sight.
func (e *Engine) shard(src event.SourceID) *shard {
	if sh := e.lookupShard(src); sh != nil {
		return sh
	}
	e.regMu.Lock()
	defer e.regMu.Unlock()
	if sh := e.shards[src]; sh != nil {
		return sh
	}
	sh := &shard{}
	tag := identify.SourceTag(src)
	if owner, taken := e.tagOwner[tag]; taken && owner != src {
		// The source's deterministic ID namespace is already claimed:
		// poison the shard so Ingest reports the collision instead of
		// minting IDs that alias the other source's stories.
		sh.err = fmt.Errorf("%w: %q vs %q (tag %d)", ErrSourceCollision, src, owner, tag)
		sh.id = identify.New(src, e.opts.Identify, nil)
	} else {
		e.tagOwner[tag] = src
		alloc := e.allocs[src]
		if alloc == nil {
			alloc = identify.NewSourceAlloc(src)
			e.allocs[src] = alloc
		}
		sh.id = identify.New(src, e.opts.Identify, alloc)
	}
	e.shards[src] = sh
	metSourcesGauge.Set(int64(len(e.shards)))
	return sh
}

// SetResultSink attaches (or detaches, with nil) the primary alignment
// result sink, replacing any previous primary; sinks added with
// AddResultSink are unaffected. If a result already exists it is
// published immediately, so a sink attached after
// restore-from-checkpoint or replay never misses the state the engine
// already computed.
func (e *Engine) SetResultSink(s ResultSink) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case s == nil && e.primary:
		e.sinks = e.sinks[1:]
		e.primary = false
	case s != nil && e.primary:
		e.sinks[0] = s
	case s != nil && !e.primary:
		e.sinks = append([]ResultSink{s}, e.sinks...)
		e.primary = true
	}
	if res := e.published.Load(); s != nil && res != nil {
		s.Publish(res)
	}
}

// AddResultSink appends a secondary result sink. Sinks are published
// to in attach order on every alignment pass, after the primary sink,
// so a secondary consumer never observes a result the primary index
// has not yet incorporated. If a result
// already exists it is published to the new sink immediately.
func (e *Engine) AddResultSink(s ResultSink) {
	if s == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sinks = append(e.sinks, s)
	if res := e.published.Load(); res != nil {
		s.Publish(res)
	}
}

// SetRetirer attaches the story lifecycle hook. It must be called during
// wiring, before the engine sees concurrent traffic: the field is read
// without synchronisation on the ingest hot path.
func (e *Engine) SetRetirer(r Retirer) {
	e.retirer = r
}

// RemoveSource detaches a source: its stories leave the aligner, and the
// next settle publishes a result without them (paper §2.4: "any story
// detection system should allow the addition or removal of data sources").
// Until then readers keep the last published result. It reports whether
// the source existed.
func (e *Engine) RemoveSource(src event.SourceID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.regMu.Lock()
	sh := e.shards[src]
	if sh == nil {
		e.regMu.Unlock()
		return false
	}
	delete(e.shards, src)
	metSourcesGauge.Set(int64(len(e.shards)))
	e.regMu.Unlock()
	sh.mu.Lock()
	sh.gone = true
	sh.mu.Unlock()
	e.aligner.RemoveSource(src)
	delete(e.dirty, src)
	e.stale = true
	e.setDirtyGauge()
	if e.retirer != nil {
		e.retirer.ForgetSource(src)
	}
	return true
}

// Sources returns the registered sources, sorted.
func (e *Engine) Sources() []event.SourceID {
	e.regMu.RLock()
	out := make([]event.SourceID, 0, len(e.shards))
	for src := range e.shards {
		out = append(out, src)
	}
	e.regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Ingest routes one snippet through its source's identifier and marks the
// source dirty for the next alignment. Unknown sources are
// registered on first sight. Returns the per-source story the snippet
// joined.
//
// Ingest for different sources runs in parallel: identification — the
// expensive part — happens under the source's shard lock only; the engine
// mutex is taken afterwards just for the dirty-set and statistics updates.
func (e *Engine) Ingest(s *event.Snippet) (event.StoryID, error) {
	if err := s.Validate(); err != nil {
		metInvalid.Inc()
		return 0, err
	}
	span := metIngestLat.Start()
	// Reactivation: if the snippet fingerprints to archived stories, the
	// whole retirement groups come back — adopted into their identifiers
	// *before* this snippet is processed, so it can attach to a
	// reactivated story exactly as it would have pre-retirement. No lock
	// is held across adoptions (shards are taken one at a time), so
	// cross-source groups cannot deadlock concurrent ingests.
	var reactivated []*event.Story
	if e.retirer != nil {
		s.EnsureInterned()
		if reactivated = e.retirer.TakeForSnippet(s); reactivated != nil {
			for _, st := range reactivated {
				e.adoptStory(st)
			}
		}
	}
	sh := e.shard(s.Source)
	sh.mu.Lock()
	for sh.gone {
		// Raced with RemoveSource after the registry lookup: the shard we
		// hold is detached, so re-resolve (auto-registering a fresh one).
		sh.mu.Unlock()
		sh = e.shard(s.Source)
		sh.mu.Lock()
	}
	var refused error
	switch {
	case sh.err != nil:
		metInvalid.Inc()
		refused = sh.err
	case sh.id.StoryOf(s.ID) != 0:
		metDuplicates.Inc()
		refused = fmt.Errorf("%w: snippet %d", ErrDuplicate, s.ID)
	}
	if refused != nil {
		sh.mu.Unlock()
		if reactivated != nil {
			// The adopted stories are resident again whatever became of
			// this snippet: the next settle must align them.
			e.mu.Lock()
			e.markReactivated(reactivated)
			e.setDirtyGauge()
			e.mu.Unlock()
		}
		return 0, refused
	}
	sid := sh.id.Process(s)
	pending := sh.id.Pending()
	sh.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	e.markReactivated(reactivated)
	e.dirty[s.Source] = pending
	e.stats.add(s)
	metIngested.Inc()
	e.setDirtyGauge()
	// The span stops here: auto-alignment below is measured by its own
	// histogram, and folding a ms-scale align pass into the µs-scale
	// ingest distribution would swamp its upper quantiles.
	span.End()
	if e.opts.AutoAlignEvery > 0 {
		if e.sinceAlign++; e.sinceAlign >= e.opts.AutoAlignEvery {
			e.alignLocked()
			e.sinceAlign = 0
		}
	}
	return sid, nil
}

// markReactivated marks the sources of stories Ingest adopted back from
// the archive dirty. Callers hold e.mu.
func (e *Engine) markReactivated(stories []*event.Story) {
	for _, st := range stories {
		e.dirty[st.Source]++
	}
}

// IngestAll ingests a batch, skipping invalid and duplicate snippets, and
// returns how many were accepted.
func (e *Engine) IngestAll(snippets []*event.Snippet) int {
	n := 0
	for _, s := range snippets {
		if _, err := e.Ingest(s); err == nil {
			n++
		}
	}
	return n
}

// snapshotStories returns consistent snapshots of one source's live
// stories, taken under the shard lock.
func (e *Engine) snapshotStories(src event.SourceID) []*event.Story {
	sh := e.lookupShard(src)
	if sh == nil {
		return nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.gone {
		return nil
	}
	live := sh.id.Stories()
	out := make([]*event.Story, len(live))
	for i, st := range live {
		out[i] = st.Snapshot()
	}
	return out
}

// changedSince reports whether the live story behind a snapshot the
// aligner holds has changed or gone since.
func (e *Engine) changedSince(held *event.Story) bool {
	sh := e.lookupShard(held.Source)
	if sh == nil {
		return true
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	live := sh.id.Story(held.ID)
	return live == nil || live.Gen() != held.Gen()
}

// adoptStory re-homes a reactivated story into its source's identifier.
// A story already resident (the retirement raced a concurrent detach
// verification and kept it) is left untouched — the live copy is newer
// than the archived one.
func (e *Engine) adoptStory(st *event.Story) {
	sh := e.shard(st.Source)
	sh.mu.Lock()
	if !sh.gone && sh.err == nil && sh.id.Story(st.ID) == nil {
		sh.id.Adopt(st)
	}
	sh.mu.Unlock()
}

// lockedMover applies refinement moves under the shard lock, so refine
// passes stay correct while other sources keep ingesting, and marks the
// source dirty (the settle running the refinement holds e.mu).
type lockedMover struct {
	e   *Engine
	src event.SourceID
	sh  *shard
}

func (m lockedMover) Move(snID event.SnippetID, to event.StoryID) bool {
	m.sh.mu.Lock()
	defer m.sh.mu.Unlock()
	if m.sh.gone || !m.sh.id.Move(snID, to) {
		return false
	}
	m.e.dirty[m.src] = m.sh.id.Pending()
	return true
}

// setDirtyGauge publishes how many stories await the next reconcile.
func (e *Engine) setDirtyGauge() {
	n := 0
	for _, c := range e.dirty {
		n += c
	}
	metDirtyGauge.Set(int64(n))
}

// reconcile brings the aligner up to date with the identifiers. Under its
// shard lock, each dirty source's identifier names every story it created,
// mutated or dropped since the last reconcile (Identifier.Drain). A gone
// story is upserted empty, which removes it; a live one is upserted as a
// snapshot (shards keep mutating their stories while alignment runs)
// unless the aligner holds it at its Gen, which is exact because every
// score reads the aligner's frozen statistics epoch (DESIGN.md §3.2).
//
// Sources go in sorted order, IDs ascending, so new stories join the
// aligner's insertion order the same way on every run; with byID (after
// refinement), IDs ascend across sources. The order changes no edge, only
// whether an Upsert scores a pair against a story the same reconcile
// removes, which only the comparison counter sees: each phase keeps its
// order so that counter stays comparable across changes. Called with e.mu
// held, under which every registered shard is live.
func (e *Engine) reconcile(byID bool) {
	sources := make([]event.SourceID, 0, len(e.dirty))
	for src := range e.dirty {
		sources = append(sources, src)
	}
	slices.Sort(sources)
	clear(e.dirty)
	metDirtyGauge.Set(0)
	var changed []*event.Story
	for _, src := range sources {
		sh := e.lookupShard(src)
		if sh == nil {
			continue // removed: RemoveSource took its stories out of the aligner
		}
		sh.mu.Lock()
		for _, sid := range sh.id.Drain() {
			if st := sh.id.Story(sid); st == nil {
				changed = append(changed, event.NewStory(sid, src))
			} else if !e.aligner.Holds(sid, st.Gen()) {
				changed = append(changed, st.Snapshot())
			}
		}
		sh.mu.Unlock()
	}
	if byID {
		slices.SortFunc(changed, func(a, b *event.Story) int { return cmp.Compare(a.ID, b.ID) })
	}
	for _, st := range changed {
		e.aligner.Upsert(st)
	}
}

// Align settles: it re-aligns the dirty stories, publishes the fresh
// integrated result to every sink and to Published, and returns it.
func (e *Engine) Align() *align.Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.alignLocked()
}

func (e *Engine) alignLocked() *align.Result {
	span := metAlignLat.Start()
	defer span.End()
	metAlignRuns.Inc()
	e.reconcile(false)
	e.stale = false
	res := e.aligner.Result()

	if e.opts.RefineOnAlign {
		e.regMu.RLock()
		movers := make(map[event.SourceID]align.Mover, len(e.shards))
		for src, sh := range e.shards {
			movers[src] = lockedMover{e, src, sh}
		}
		e.regMu.RUnlock()
		if corr := e.refiner.Refine(res, movers); len(corr) > 0 {
			metRefineMoves.Add(uint64(len(corr)))
			// Moves changed story contents; reconcile and re-align once.
			e.reconcile(true)
			res = e.aligner.Result()
		}
	}
	// Retirement walks the settled (post-refinement) active set: cold
	// alignment components are archived and detached, then the result is
	// recomputed once so the publish below already excludes them — the
	// sinks (the query index's postings, the cache stamps) see the
	// eviction as stories gone from an ordinary result.
	if e.retirer != nil {
		_, watermark := e.TimeRange()
		if e.retirer.Due(e.aligner.Len(), watermark) && e.retireLocked(watermark) > 0 {
			res = e.aligner.Result()
		}
	}
	// Only the final result of the pass is published. A sink compares it
	// with the last one it saw by IntegratedStory.Version (the index
	// does), so the results computed in between need no record. Readers of Published see it only after
	// every sink has it.
	for _, s := range e.sinks {
		s.Publish(res)
	}
	e.published.Store(res)
	return res
}

// retireLocked runs one retirement walk under e.mu at the given event-time
// watermark and returns how many stories were retired. Per retirable set
// the protocol is:
//
//  1. verify under each member's shard lock that the live story still is
//     the snapshot the aligner holds (any member that changed aborts the
//     set);
//  2. archive those snapshots durably (fsynced) — on error retirement
//     stops for this pass, nothing was detached;
//  3. detach each member, verifying under the shard lock that its Gen
//     still equals the snapshot's — a story that raced new evidence
//     between 1 and 3 stays resident and is pruned from the group.
//
// The ordering makes the archive a superset of what was detached at
// every instant, so a crash anywhere loses at most a retirement.
func (e *Engine) retireLocked(watermark time.Time) int {
	cold := func(st *event.Story) bool {
		return e.retirer.Cold(st.ID, st.End, watermark)
	}
	// The same-source guard exists for repair-merge reachability (its
	// sweep pairs stories whose ω-padded extents overlap); with repair
	// disabled there is nothing to guard and a single long-lived warm
	// story would otherwise pin every cold story of its source forever.
	pad := e.opts.Identify.Window
	if e.opts.Identify.RepairEvery <= 0 {
		pad = -1
	}
	sets := e.aligner.RetirableSets(cold, pad)
	total := 0
	for _, set := range sets {
		if slices.ContainsFunc(set, e.changedSince) {
			continue
		}
		ticket, err := e.retirer.Archive(set, watermark)
		if err != nil {
			metRetireArchiveErrors.Inc()
			break
		}
		retired := make([]event.StoryID, 0, len(set))
		for _, snap := range set {
			sh := e.lookupShard(snap.Source)
			if sh == nil {
				continue
			}
			sh.mu.Lock()
			live := sh.id.Story(snap.ID)
			if sh.gone || live == nil || live.Gen() != snap.Gen() {
				sh.mu.Unlock()
				continue
			}
			sh.id.Detach(snap.ID)
			sh.mu.Unlock()
			e.aligner.Remove(snap.ID)
			retired = append(retired, snap.ID)
		}
		if len(retired) == 0 {
			e.retirer.Abort(ticket)
			continue
		}
		e.retirer.Commit(ticket, retired)
		total += len(retired)
	}
	return total
}

// Result settles and returns the most recent alignment result: it aligns
// first if nothing was published yet or anything changed since (ingests,
// refinement moves, a removed source). Queries do not call it; they read
// Published.
func (e *Engine) Result() *align.Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	if res := e.published.Load(); res != nil && !e.stale && len(e.dirty) == 0 {
		return res
	}
	return e.alignLocked()
}

// noResult is what Published returns before the first settle.
var noResult = &align.Result{}

// Published returns the result of the last settle without settling and
// without taking the engine mutex, so it never waits for a settle in
// progress; before the first settle it is an empty result. Every sink has
// already published it, so the query index is at least as new.
func (e *Engine) Published() *align.Result {
	if res := e.published.Load(); res != nil {
		return res
	}
	return noResult
}

// Stories returns the current per-source stories of one source, as
// snapshots that stay consistent while ingestion continues.
func (e *Engine) Stories(src event.SourceID) []*event.Story {
	return e.snapshotStories(src)
}

// SourceStats returns a source's identification work counters and story
// count, read under its shard lock; ok is false for an unknown source.
func (e *Engine) SourceStats(src event.SourceID) (st identify.Stats, stories int, ok bool) {
	e.withIdentifier(src, func(id *identify.Identifier) {
		st, stories, ok = id.Stats(), id.StoryCount(), true
	})
	return st, stories, ok
}

// StoryOf returns the story a snippet of src is currently assigned to (0
// if the source or the snippet is unknown).
func (e *Engine) StoryOf(src event.SourceID, snID event.SnippetID) (sid event.StoryID) {
	e.withIdentifier(src, func(id *identify.Identifier) { sid = id.StoryOf(snID) })
	return sid
}

// withIdentifier runs f on src's identifier under its shard lock, if the
// source is registered.
func (e *Engine) withIdentifier(src event.SourceID, f func(*identify.Identifier)) {
	sh := e.lookupShard(src)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.gone {
		f(sh.id)
	}
}

// Ingested returns the number of accepted snippets.
func (e *Engine) Ingested() uint64 {
	e.stats.mu.Lock()
	defer e.stats.mu.Unlock()
	return e.stats.ingested
}

// DistinctEntities returns the number of distinct entities the accepted
// snippets mention.
func (e *Engine) DistinctEntities() uint64 {
	e.stats.mu.Lock()
	defer e.stats.mu.Unlock()
	return e.stats.entities
}

// TimeRange returns the [earliest, latest] snippet timestamps ingested;
// zero times when nothing was ingested.
func (e *Engine) TimeRange() (start, end time.Time) {
	e.stats.mu.Lock()
	defer e.stats.mu.Unlock()
	return e.stats.firstTS, e.stats.lastTS
}
