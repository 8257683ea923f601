// Package retire is StoryPivot's story lifecycle subsystem: it bounds
// the steady-state memory of an engine running against an infinite feed
// by retiring cold stories — no new evidence for a configurable window W
// of *event* time — into a durable on-disk archive, and reactivating
// them when new evidence arrives that fingerprints back to them.
//
// The manager implements the stream engine's Retirer hook. The protocol
// per retirement pass (driven by the engine under its own lock, at
// alignment-publish time) is snapshot → store sync → archive (fsynced)
// → detach: a story's snippets and its archive record are durable
// before its live state is released, so a crash at any point loses at
// most a retirement, never a story. The resident footprint per archived
// story is a small metadata record — identity, extent, entity/term
// fingerprint, disk location. An archive record adds the aggregate
// vectors, Gen and member snippet IDs; the members themselves are read
// back from the event store, and only on reactivation.
//
// Reactivation is evidence-driven: every ingested snippet consults a
// fingerprint index (time-bucketed, so the common no-match case is one
// map probe) for archived stories whose padded extent covers the snippet
// timestamp and whose entity (or, for entity-free stories, descriptive
// term) fingerprint overlaps it. Matching stories return as whole
// retirement groups — the alignment component they were evicted with —
// restored under their original StoryID with a bumped Gen.
package retire

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/event"
	"repro/internal/storage"
	"repro/internal/vocab"
)

// Store is the event store archive records point into: Archive syncs it
// before a record names its members, and reactivation reads them back
// through Get, which returns nil for a snippet it does not hold and
// returns each snippet as the engine holds it.
type Store interface {
	Sync() error
	Get(id event.SnippetID) *event.Snippet
}

// Config parameterises the retirement policy.
type Config struct {
	// Window is W: a story is cold once the event-time watermark has
	// advanced more than Window past the story's last evidence. 0
	// disables retirement.
	Window time.Duration
	// Grace is the reactivation holdback: a story reactivated at
	// watermark t is not retired again before t+Grace, which stops a
	// fingerprint false positive from thrashing the archive on every
	// upsert of a warm neighbour. Defaults to Window/4.
	Grace time.Duration
	// MinResident pauses retirement while fewer stories are resident —
	// there is no memory pressure to relieve below it.
	MinResident int
	// CheckEvery runs the retirement walk only every n-th alignment
	// publish (default 1: every publish).
	CheckEvery int
	// Dir is the archive directory; the pipeline keeps it under the
	// store's, so a record never points into another store.
	Dir string

	// IdentWindow is the identification window ω: same-source
	// reactivation triggers when a snippet lands within ω of an archived
	// story's extent (mirroring the identifier's candidate window).
	IdentWindow time.Duration
	// AlignSlack is the aligner's temporal slack: cross-source
	// reactivation triggers within it (mirroring the alignment
	// candidate filter).
	AlignSlack time.Duration
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Window < 0 || c.Grace < 0 {
		return fmt.Errorf("retire: window and grace must be >= 0")
	}
	if c.Window > 0 && c.Dir == "" {
		return fmt.Errorf("retire: archive directory required")
	}
	return nil
}

// member is the resident footprint of one archived story.
type member struct {
	meta  storage.ArchivedStoryMeta
	ents  []uint32 // sorted entity symbols (re-interned for this process)
	terms []uint32 // sorted top-term symbols (entity-free stories only)
}

// group is one retirement set: the alignment component retired together,
// reactivated together.
type group struct {
	id      uint64
	members []member
}

// Manager owns the archive, the fingerprint index over archived stories,
// and the policy state. It is safe for concurrent use; in the engine's
// lock order its mutex comes after engine.mu and shard.mu and before
// only the store's (engine.mu → shard.mu → retire.mu → store is never
// taken in reverse).
type Manager struct {
	mu  sync.Mutex
	cfg Config

	store   Store
	arch    *storage.Archive
	groups  map[uint64]*group
	groupOf map[event.StoryID]uint64 // story → owning group
	// buckets index groups by coarse time: a group appears in every
	// bucket its members' (pad-widened) extents touch, so a snippet
	// lookup probes exactly one bucket.
	buckets     map[int64][]uint64
	bucketWidth time.Duration
	deadGroups  int // removed groups still referenced by buckets

	nextGroup uint64
	pending   map[uint64][]storage.ArchivedStoryMeta // ticket → metas between Archive and Commit

	// grace holds, per reactivated story, the watermark before which it
	// may not be retired again.
	grace map[event.StoryID]time.Time

	watermark time.Time
	passes    int

	// Cumulative totals mirrored into obs counters, kept locally so the
	// window view can report them per-manager.
	retired       uint64
	reactivated   uint64
	archivedBytes uint64
	resident      int
}

// Open opens (creating if needed) the archive in cfg.Dir, whose records
// point into store, and rebuilds the fingerprint index from the intact
// records on disk. For stories archived more than once (retire →
// reactivate → retire), the latest record wins. The caller reconciles
// the index against its checkpoint (Reconcile) or discards it (Reset)
// before serving.
func Open(cfg Config, store Store) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Grace <= 0 {
		cfg.Grace = cfg.Window / 4
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 1
	}
	arch, metas, err := storage.OpenArchive(cfg.Dir)
	if err != nil {
		return nil, err
	}
	bw := cfg.AlignSlack
	if cfg.IdentWindow > bw {
		bw = cfg.IdentWindow
	}
	if bw <= 0 {
		bw = 24 * time.Hour
	}
	m := &Manager{
		cfg:         cfg,
		store:       store,
		arch:        arch,
		groups:      make(map[uint64]*group),
		groupOf:     make(map[event.StoryID]uint64),
		buckets:     make(map[int64][]uint64),
		bucketWidth: bw,
		pending:     make(map[uint64][]storage.ArchivedStoryMeta),
		grace:       make(map[event.StoryID]time.Time),
	}
	// Latest record per story wins; groups re-form from the surviving
	// records' group tickets.
	latest := make(map[event.StoryID]storage.ArchivedStoryMeta, len(metas))
	order := make([]event.StoryID, 0, len(metas))
	for _, meta := range metas {
		if _, seen := latest[meta.ID]; !seen {
			order = append(order, meta.ID)
		}
		latest[meta.ID] = meta
		if meta.Group >= m.nextGroup {
			m.nextGroup = meta.Group + 1
		}
	}
	for _, sid := range order {
		m.indexStory(latest[sid])
	}
	metArchived.Set(int64(len(m.groupOf)))
	return m, nil
}

// indexStory adds one archived-story record to the fingerprint index
// (under mu, or during single-threaded Open).
func (m *Manager) indexStory(meta storage.ArchivedStoryMeta) {
	g := m.groups[meta.Group]
	if g == nil {
		g = &group{id: meta.Group}
		m.groups[meta.Group] = g
	}
	mem := member{meta: meta}
	mem.ents = make([]uint32, len(meta.Entities))
	for i, s := range meta.Entities {
		mem.ents[i] = vocab.Entities.ID(s)
	}
	sort.Slice(mem.ents, func(i, j int) bool { return mem.ents[i] < mem.ents[j] })
	if len(meta.Entities) == 0 {
		mem.terms = make([]uint32, len(meta.TopTerms))
		for i, s := range meta.TopTerms {
			mem.terms[i] = vocab.Terms.ID(s)
		}
		sort.Slice(mem.terms, func(i, j int) bool { return mem.terms[i] < mem.terms[j] })
	}
	g.members = append(g.members, mem)
	m.groupOf[meta.ID] = meta.Group
	m.bucketGroup(g.id, meta)
}

// bucketGroup registers the group in every time bucket the member's
// pad-widened extent touches.
func (m *Manager) bucketGroup(gid uint64, meta storage.ArchivedStoryMeta) {
	pad := m.bucketWidth
	lo := meta.Start.Add(-pad).UnixNano() / int64(m.bucketWidth)
	hi := meta.End.Add(pad).UnixNano() / int64(m.bucketWidth)
	for b := lo; b <= hi; b++ {
		ids := m.buckets[b]
		if n := len(ids); n > 0 && ids[n-1] == gid {
			continue
		}
		m.buckets[b] = append(ids, gid)
	}
}

// compactBuckets rebuilds the bucket index once dead references
// dominate; the long-running ingest path otherwise scans ever-growing
// bucket lists.
func (m *Manager) compactBuckets() {
	if m.deadGroups <= len(m.groups)+16 {
		return
	}
	m.buckets = make(map[int64][]uint64)
	for _, g := range m.groups {
		for _, mem := range g.members {
			m.bucketGroup(g.id, mem.meta)
		}
	}
	m.deadGroups = 0
}

// Due reports whether a retirement walk should run now, and feeds the
// policy its inputs: the engine's resident story count and event-time
// watermark. Called on every alignment publish.
func (m *Manager) Due(resident int, watermark time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if watermark.After(m.watermark) {
		m.watermark = watermark
	}
	m.resident = resident
	metResident.Set(int64(resident))
	if m.cfg.Window <= 0 || watermark.IsZero() || resident <= m.cfg.MinResident {
		return false
	}
	m.passes++
	if m.passes < m.cfg.CheckEvery {
		return false
	}
	m.passes = 0
	metPasses.Inc()
	return true
}

// Cold reports whether a story with the given last-evidence time is
// retirable at the given watermark: outside the window and past any
// reactivation grace.
func (m *Manager) Cold(id event.StoryID, end, watermark time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.Window <= 0 || watermark.Sub(end) <= m.cfg.Window {
		return false
	}
	if until, held := m.grace[id]; held {
		if watermark.Before(until) {
			return false
		}
		delete(m.grace, id)
	}
	return true
}

// Archive durably appends a retirement group and returns a ticket: it
// syncs the store, so the members a record names outlive a crash even
// under an unsynced store, then appends the records fsynced. The caller
// detaches the live stories only after Archive returns, then settles the
// ticket with Commit (members actually detached) or Abort.
func (m *Manager) Archive(stories []*event.Story, watermark time.Time) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.store.Sync(); err != nil {
		return 0, fmt.Errorf("retire: syncing the store: %w", err)
	}
	ticket := m.nextGroup
	m.nextGroup++
	metas, n, err := m.arch.AppendGroup(ticket, watermark, stories)
	if err != nil {
		return 0, err
	}
	m.pending[ticket] = metas
	m.archivedBytes += uint64(n)
	metArchivedBytes.Add(uint64(n))
	return ticket, nil
}

// Commit indexes the members of a ticket that were actually detached
// from the engine. Members that raced new evidence between snapshot and
// detach stay resident; their on-disk record is superseded by the next
// retirement (latest record wins) and ignored by checkpoint reconcile.
func (m *Manager) Commit(ticket uint64, retired []event.StoryID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	metas := m.pending[ticket]
	delete(m.pending, ticket)
	keep := make(map[event.StoryID]bool, len(retired))
	for _, id := range retired {
		keep[id] = true
	}
	for _, meta := range metas {
		if !keep[meta.ID] {
			continue
		}
		// A story being re-archived replaces its older record.
		m.removeStory(meta.ID)
		m.indexStory(meta)
		delete(m.grace, meta.ID)
		m.retired++
		metRetired.Inc()
	}
	metArchived.Set(int64(len(m.groupOf)))
	m.compactBuckets()
}

// Abort discards a ticket whose group could not be detached at all; the
// orphaned disk records are reconciled away on the next open.
func (m *Manager) Abort(ticket uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.pending, ticket)
}

// TakeForSnippet consults the fingerprint index for archived stories the
// given snippet is evidence for, removes every matching group from the
// index, and returns the fully restored stories (original StoryID,
// bumped Gen). The caller re-adopts them into the engine. A group comes
// back whole or not at all: if any member fails to read, the group stays
// archived and indexed. A nil return (the overwhelmingly common case)
// costs one bucket probe.
func (m *Manager) TakeForSnippet(sn *event.Snippet) []*event.Story {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.groups) == 0 {
		return nil
	}
	b := sn.Timestamp.UnixNano() / int64(m.bucketWidth)
	var out []*event.Story
	for _, gid := range m.buckets[b] {
		g := m.groups[gid]
		if g == nil || !m.groupMatches(g, sn) {
			continue
		}
		stories, err := m.readGroup(g)
		if err != nil {
			metReactivateErrors.Inc()
			continue
		}
		until := m.watermark
		if sn.Timestamp.After(until) {
			until = sn.Timestamp
		}
		until = until.Add(m.cfg.Grace)
		for _, st := range stories {
			st.BumpGen()
			m.grace[st.ID] = until
			m.reactivated++
			metReactivated.Inc()
		}
		out = append(out, stories...)
		m.dropGroup(gid)
	}
	if out != nil {
		metArchived.Set(int64(len(m.groupOf)))
		m.compactBuckets()
	}
	return out
}

// readGroup restores every member of g, failing on the first that cannot
// be read.
func (m *Manager) readGroup(g *group) ([]*event.Story, error) {
	stories := make([]*event.Story, len(g.members))
	for i, mem := range g.members {
		st, err := m.arch.ReadStory(mem.meta.Loc, m.store.Get)
		if err != nil {
			return nil, err
		}
		stories[i] = st
	}
	return stories, nil
}

// groupMatches reports whether the snippet is plausible new evidence for
// any member: timestamp within the member's padded extent (ω for the
// snippet's own source, alignment slack across sources) and a
// fingerprint overlap on entities (or top terms for entity-free pairs).
func (m *Manager) groupMatches(g *group, sn *event.Snippet) bool {
	for i := range g.members {
		mem := &g.members[i]
		win := m.cfg.AlignSlack
		if mem.meta.Source == sn.Source {
			win = m.cfg.IdentWindow
		}
		if win <= 0 {
			continue
		}
		if sn.Timestamp.Before(mem.meta.Start.Add(-win)) || sn.Timestamp.After(mem.meta.End.Add(win)) {
			continue
		}
		if len(mem.ents) > 0 {
			for _, e := range sn.EntityIDs {
				if containsSym(mem.ents, e) {
					return true
				}
			}
			continue
		}
		for _, tw := range sn.TermIDs {
			if containsSym(mem.terms, tw.ID) {
				return true
			}
		}
	}
	return false
}

func containsSym(sorted []uint32, x uint32) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x })
	return i < len(sorted) && sorted[i] == x
}

// dropGroup removes a group from the index (buckets keep stale refs
// until compaction).
func (m *Manager) dropGroup(gid uint64) {
	g := m.groups[gid]
	if g == nil {
		return
	}
	for _, mem := range g.members {
		delete(m.groupOf, mem.meta.ID)
	}
	delete(m.groups, gid)
	m.deadGroups++
}

// removeStory prunes one story from its group (under mu).
func (m *Manager) removeStory(sid event.StoryID) {
	gid, ok := m.groupOf[sid]
	if !ok {
		return
	}
	g := m.groups[gid]
	if g != nil {
		kept := g.members[:0]
		for _, mem := range g.members {
			if mem.meta.ID != sid {
				kept = append(kept, mem)
			}
		}
		g.members = kept
		if len(g.members) == 0 {
			delete(m.groups, gid)
			m.deadGroups++
		}
	}
	delete(m.groupOf, sid)
}

// ForgetSource drops every archived story of a removed source from the
// index; co-grouped stories of other sources remain reactivatable.
func (m *Manager) ForgetSource(src event.SourceID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var drop []event.StoryID
	for sid, gid := range m.groupOf {
		g := m.groups[gid]
		if g == nil {
			continue
		}
		for _, mem := range g.members {
			if mem.meta.ID == sid && mem.meta.Source == src {
				drop = append(drop, sid)
			}
		}
	}
	for _, sid := range drop {
		m.removeStory(sid)
	}
	metArchived.Set(int64(len(m.groupOf)))
	m.compactBuckets()
}

// ArchivedIDs returns the archived story IDs of one source, sorted —
// the engine embeds them in checkpoints so a restore knows which
// assignment entries not to rebuild stories for.
func (m *Manager) ArchivedIDs(src event.SourceID) []event.StoryID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []event.StoryID
	for sid, gid := range m.groupOf {
		g := m.groups[gid]
		if g == nil {
			continue
		}
		for _, mem := range g.members {
			if mem.meta.ID == sid && mem.meta.Source == src {
				out = append(out, sid)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Has reports whether a story is currently archived. Checkpoint restore
// uses it to verify that every story the checkpoint calls archived is
// actually recoverable.
func (m *Manager) Has(sid event.StoryID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.groupOf[sid]
	return ok
}

// Reconcile drops every indexed story not in keep. After a checkpoint
// restore, keep is the union of the checkpoint's archived sets: records
// for stories the checkpoint says are resident (a retirement the
// checkpoint never saw, or a reactivation it did see) are stale.
func (m *Manager) Reconcile(keep map[event.StoryID]bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var drop []event.StoryID
	for sid := range m.groupOf {
		if !keep[sid] {
			drop = append(drop, sid)
		}
	}
	for _, sid := range drop {
		m.removeStory(sid)
	}
	metArchived.Set(int64(len(m.groupOf)))
	m.compactBuckets()
}

// Reset discards the archive — index and segments. The pipeline calls it
// when state was rebuilt by full replay (everything resident, archive
// stale by construction).
func (m *Manager) Reset() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.groups = make(map[uint64]*group)
	m.groupOf = make(map[event.StoryID]uint64)
	m.buckets = make(map[int64][]uint64)
	m.pending = make(map[uint64][]storage.ArchivedStoryMeta)
	m.grace = make(map[event.StoryID]time.Time)
	m.deadGroups = 0
	metArchived.Set(0)
	return m.arch.Reset()
}

// RecoveryWarnings returns the archive records Open cut (torn, or
// undecodable such as an older record version).
func (m *Manager) RecoveryWarnings() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.arch.RecoveryWarnings()
}

// Close releases the archive.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.arch.Close()
}

// View is the observable window state served by GET /api/window and
// /healthz.
type View struct {
	Enabled       bool      `json:"enabled"`
	Window        string    `json:"window"`
	Grace         string    `json:"grace"`
	MinResident   int       `json:"min_resident"`
	Watermark     time.Time `json:"watermark"`
	Resident      int       `json:"resident_stories"`
	Archived      int       `json:"archived_stories"`
	Retired       uint64    `json:"retired_total"`
	Reactivated   uint64    `json:"reactivated_total"`
	ArchivedBytes uint64    `json:"archived_bytes_total"`
}

// Snapshot returns the current window state.
func (m *Manager) Snapshot() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return View{
		Enabled:       m.cfg.Window > 0,
		Window:        m.cfg.Window.String(),
		Grace:         m.cfg.Grace.String(),
		MinResident:   m.cfg.MinResident,
		Watermark:     m.watermark,
		Resident:      m.resident,
		Archived:      len(m.groupOf),
		Retired:       m.retired,
		Reactivated:   m.reactivated,
		ArchivedBytes: m.archivedBytes,
	}
}

// Update rebases the live policy; nil fields keep their current value
// (the same partial-update shape as the quota admin endpoint).
type Update struct {
	Window      *time.Duration
	Grace       *time.Duration
	MinResident *int
}

// Apply validates and applies a live policy update. Shrinking the window
// takes effect on the next retirement walk; growing it stops retiring
// sooner but does not reactivate already-archived stories (they return
// on evidence, as always).
func (m *Manager) Apply(u Update) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := m.cfg
	if u.Window != nil {
		next.Window = *u.Window
	}
	if u.Grace != nil {
		next.Grace = *u.Grace
	}
	if u.MinResident != nil {
		if *u.MinResident < 0 {
			return fmt.Errorf("retire: min_resident must be >= 0")
		}
		next.MinResident = *u.MinResident
	}
	if next.Window < 0 || next.Grace < 0 {
		return fmt.Errorf("retire: window and grace must be >= 0")
	}
	m.cfg = next
	return nil
}
