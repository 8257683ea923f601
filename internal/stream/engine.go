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
// evidence reactivates. The engine calls every method under Engine.mu;
// implementations synchronise internally for their other readers and
// must never call back into the engine.
type Retirer interface {
	// Due reports whether a retirement walk should run, given the
	// resident story count and the event-time watermark. Called on every
	// alignment publish (also serving as the watermark feed).
	Due(resident int, watermark time.Time) bool
	// Cold reports whether a story whose last evidence is at end is
	// retirable at the given watermark.
	Cold(id event.StoryID, end, watermark time.Time) bool
	// Archive durably persists a retirement group and indexes it for
	// reactivation; the engine detaches every member once it returns.
	Archive(stories []*event.Story, watermark time.Time) error
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

// Engine is the live StoryPivot pipeline. It is safe for concurrent use.
// One mutex, mu, guards every identifier and the alignment state: an
// ingest, a settle, a source change, a checkpoint and the library
// accessors Stories and StoryOf serialise on it. Readers take none of
// it: the last published result is an atomic pointer (Published), and
// the dataset statistics with their per-source rows sit behind their own
// small lock, refreshed under mu. Lock order, for any path that holds
// more than one: Engine.mu → retirer → store, and Engine.mu → stats.mu.
type Engine struct {
	opts Options

	mu sync.Mutex
	// ids holds each registered source's identifier. Identification is
	// per-source by construction (paper §2.2); an identifier also answers
	// duplicate delivery: a snippet it has already assigned is a
	// redelivery.
	ids map[event.SourceID]*identify.Identifier
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
	// sinks receive every freshly computed result, in attach order.
	// Slot 0 is reserved for the primary sink set via SetResultSink (the
	// query index; primary tracks whether that slot is occupied);
	// AddResultSink appends after it, so secondary consumers always
	// observe a state the index has already incorporated.
	sinks   []ResultSink
	primary bool

	// retirer, when set, bounds resident memory: see Retirer.
	retirer Retirer

	stats datasetStats
}

// datasetStats holds the statistics module's panels: how many snippets
// were accepted, how many distinct entities they mention, the time range
// they cover, and one row per registered source. It has its own lock, so
// a reader never waits for a settle holding Engine.mu.
type datasetStats struct {
	mu       sync.Mutex
	ingested uint64
	// entSeen has bit i set once an accepted snippet mentions entity
	// symbol i (see internal/vocab); entities counts the set bits.
	entSeen         []uint64
	entities        uint64
	firstTS, lastTS time.Time
	// rows copies each registered source's identification counters and
	// story count, refreshed under Engine.mu after every ingest, settle
	// and source change.
	rows map[event.SourceID]sourceRow
}

// sourceRow is one source's row of the statistics module.
type sourceRow struct {
	stats   identify.Stats
	stories int
}

func rowOf(id *identify.Identifier) sourceRow {
	return sourceRow{id.Stats(), id.StoryCount()}
}

// add counts one accepted snippet, by its interned EntityIDs, and
// stores its source's refreshed row.
func (d *datasetStats) add(s *event.Snippet, row sourceRow) {
	s.EnsureInterned()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rows[s.Source] = row
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
		ids:      make(map[event.SourceID]*identify.Identifier),
		allocs:   make(map[event.SourceID]*identify.IDAlloc),
		tagOwner: make(map[uint32]event.SourceID),
		aligner:  align.NewAligner(opts.Align),
		refiner:  align.NewRefiner(opts.Refine),
		dirty:    make(map[event.SourceID]int),
		stats:    datasetStats{rows: make(map[event.SourceID]sourceRow)},
	}
}

// AddSource registers a data source; adding an existing source is a
// no-op. Ingest registers unknown sources on first sight, so AddSource
// is needed only to pre-create an empty source or to learn, before
// anything else happens to a snippet, whether its source would be
// refused (ErrSourceCollision).
func (e *Engine) AddSource(src event.SourceID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.identifier(src)
	return err
}

// identifier returns the source's identifier, registering the source on
// first sight. A source whose ID-namespace tag another source claimed is
// refused, not registered. Callers hold e.mu.
func (e *Engine) identifier(src event.SourceID) (*identify.Identifier, error) {
	if id := e.ids[src]; id != nil {
		return id, nil
	}
	tag := identify.SourceTag(src)
	if owner, taken := e.tagOwner[tag]; taken && owner != src {
		return nil, fmt.Errorf("%w: %q vs %q (tag %d)", ErrSourceCollision, src, owner, tag)
	}
	e.tagOwner[tag] = src
	alloc := e.allocs[src]
	if alloc == nil {
		alloc = identify.NewSourceAlloc(src)
		e.allocs[src] = alloc
	}
	id := identify.New(src, e.opts.Identify, alloc)
	e.ids[src] = id
	metSourcesGauge.Set(int64(len(e.ids)))
	e.stats.mu.Lock()
	e.stats.rows[src] = rowOf(id)
	e.stats.mu.Unlock()
	return id, nil
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

// SetRetirer attaches the story lifecycle hook.
func (e *Engine) SetRetirer(r Retirer) {
	e.mu.Lock()
	defer e.mu.Unlock()
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
	if e.ids[src] == nil {
		return false
	}
	delete(e.ids, src)
	metSourcesGauge.Set(int64(len(e.ids)))
	e.stats.mu.Lock()
	delete(e.stats.rows, src)
	e.stats.mu.Unlock()
	e.aligner.RemoveSource(src)
	delete(e.dirty, src)
	e.stale = true
	e.setDirtyGauge()
	if e.retirer != nil {
		e.retirer.ForgetSource(src)
	}
	return true
}

// Sources returns the registered sources, sorted. It reads the
// statistics rows, so it never waits for a settle.
func (e *Engine) Sources() []event.SourceID {
	e.stats.mu.Lock()
	out := make([]event.SourceID, 0, len(e.stats.rows))
	for src := range e.stats.rows {
		out = append(out, src)
	}
	e.stats.mu.Unlock()
	slices.Sort(out)
	return out
}

// Ingest routes one snippet through its source's identifier and marks the
// source dirty for the next alignment. Unknown sources are registered on
// first sight. Returns the per-source story the snippet joined.
//
// Ingest holds Engine.mu throughout: the reactivation check, the
// identification, the dirty mark and, every AutoAlignEvery snippets, the
// settle. Ingests of different sources therefore serialise too; every
// ingest path settles often, and a settle needs the lock anyway.
func (e *Engine) Ingest(s *event.Snippet) (event.StoryID, error) {
	if err := s.Validate(); err != nil {
		metInvalid.Inc()
		return 0, err
	}
	span := metIngestLat.Start()
	e.mu.Lock()
	defer e.mu.Unlock()
	// Reactivation: if the snippet fingerprints to archived stories, the
	// whole retirement groups come back — adopted into their identifiers
	// *before* this snippet is processed, so it can attach to a
	// reactivated story exactly as it would have pre-retirement. The
	// adopted stories are resident again whatever becomes of this
	// snippet: the next settle must align them.
	if e.retirer != nil {
		s.EnsureInterned()
		if reactivated := e.retirer.TakeForSnippet(s); reactivated != nil {
			for _, st := range reactivated {
				if id, err := e.identifier(st.Source); err == nil {
					id.Adopt(st)
					e.dirty[st.Source]++
				}
			}
			e.refreshRows()
			e.setDirtyGauge()
		}
	}
	id, err := e.identifier(s.Source)
	if err != nil {
		metInvalid.Inc()
		return 0, err
	}
	if id.StoryOf(s.ID) != 0 {
		metDuplicates.Inc()
		return 0, fmt.Errorf("%w: snippet %d", ErrDuplicate, s.ID)
	}
	sid := id.Process(s)
	e.dirty[s.Source] = id.Pending()
	e.stats.add(s, rowOf(id))
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

// refreshRows copies every registered source's statistics row. Callers
// hold e.mu.
func (e *Engine) refreshRows() {
	e.stats.mu.Lock()
	defer e.stats.mu.Unlock()
	for src, id := range e.ids {
		e.stats.rows[src] = rowOf(id)
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

// setDirtyGauge publishes how many stories await the next reconcile.
func (e *Engine) setDirtyGauge() {
	n := 0
	for _, c := range e.dirty {
		n += c
	}
	metDirtyGauge.Set(int64(n))
}

// reconcile brings the aligner up to date with the identifiers. Each
// dirty source's identifier names every story it created, mutated or
// dropped since the last reconcile (Identifier.Drain). A gone story is
// upserted empty, which removes it; a live one is upserted as a snapshot
// (published results share the aligner's stories and are read without
// the lock while ingest mutates the live ones) unless the aligner holds
// it at its Gen, which is exact because every score reads the aligner's
// frozen statistics epoch (DESIGN.md §3.2).
//
// Sources go in sorted order, IDs ascending, so new stories join the
// aligner's insertion order the same way on every run; with byID (after
// refinement), IDs ascend across sources. The order changes no edge, only
// whether an Upsert scores a pair against a story the same reconcile
// removes, which only the comparison counter sees: each phase keeps its
// order so that counter stays comparable across changes. Callers hold
// e.mu.
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
		id := e.ids[src]
		if id == nil {
			continue // removed: RemoveSource took its stories out of the aligner
		}
		for _, sid := range id.Drain() {
			if st := id.Story(sid); st == nil {
				changed = append(changed, event.NewStory(sid, src))
			} else if !e.aligner.Holds(sid, st.Gen()) {
				changed = append(changed, st.Snapshot())
			}
		}
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
		movers := make(map[event.SourceID]align.Mover, len(e.ids))
		for src, id := range e.ids {
			movers[src] = id
		}
		if corr := e.refiner.Refine(res, movers); len(corr) > 0 {
			metRefineMoves.Add(uint64(len(corr)))
			for _, c := range corr {
				e.dirty[c.Source] = e.ids[c.Source].Pending()
			}
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
	e.refreshRows()
	// Only the final result of the pass is published. A sink compares it
	// with the last one it saw by IntegratedStory.Version (the index
	// does), so the results computed in between need no record. Readers
	// of Published see it only after every sink has it.
	for _, s := range e.sinks {
		s.Publish(res)
	}
	e.published.Store(res)
	return res
}

// retireLocked runs one retirement walk under e.mu at the given event-time
// watermark and returns how many stories were retired. Per retirable set
// it archives the aligner's snapshots durably (the store synced, the
// records fsynced) and then detaches each member; a failed archive stops
// retirement for this pass with nothing detached. The snapshots are the
// live stories at their Gen (reconcile just ran, and nothing changes a
// story without e.mu), and the archive is a superset of what was
// detached at every instant, so a crash anywhere loses at most a
// retirement.
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
	total := 0
	for _, set := range e.aligner.RetirableSets(cold, pad) {
		if err := e.retirer.Archive(set, watermark); err != nil {
			metRetireArchiveErrors.Inc()
			break
		}
		for _, snap := range set {
			e.ids[snap.Source].Detach(snap.ID)
			e.aligner.Remove(snap.ID)
		}
		total += len(set)
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
// snapshots that stay consistent while ingestion continues. It reads the
// live identifier, so it waits for a settle in progress; the server
// serves the published ones instead.
func (e *Engine) Stories(src event.SourceID) []*event.Story {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.ids[src]
	if id == nil {
		return nil
	}
	live := id.Stories()
	out := make([]*event.Story, len(live))
	for i, st := range live {
		out[i] = st.Snapshot()
	}
	return out
}

// SourceStats returns a source's identification work counters and story
// count as of the last ingest, settle or source change; ok is false for
// an unknown source. It never waits for a settle.
func (e *Engine) SourceStats(src event.SourceID) (st identify.Stats, stories int, ok bool) {
	e.stats.mu.Lock()
	defer e.stats.mu.Unlock()
	row, ok := e.stats.rows[src]
	return row.stats, row.stories, ok
}

// StoryOf returns the story a snippet of src is currently assigned to (0
// if the source or the snippet is unknown).
func (e *Engine) StoryOf(src event.SourceID, snID event.SnippetID) event.StoryID {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id := e.ids[src]; id != nil {
		return id.StoryOf(snID)
	}
	return 0
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
