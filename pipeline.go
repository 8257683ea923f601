package storypivot

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/extract"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/retire"
	"repro/internal/storage"
	"repro/internal/stream"
)

// Pipeline-level instrumentation. The checkpoint-restore counters share
// names with the stream package's registrations, so both resolve to the
// same obs.Default metrics.
var (
	metDocuments = obs.GetCounter("storypivot_pipeline_documents_total",
		"documents accepted by AddDocument")
	metPipelineIngest = obs.GetHistogram("storypivot_pipeline_ingest_seconds",
		"per-snippet latency through persistence and identification")
	metCheckpointWrites = obs.GetCounter("storypivot_pipeline_checkpoint_writes_total",
		"checkpoints written")
	metCheckpointLat = obs.GetHistogram("storypivot_pipeline_checkpoint_seconds",
		"checkpoint serialisation and rename latency")
	metRestoreFallbacks = obs.GetCounter("storypivot_stream_checkpoint_restore_failures_total",
		"checkpoint restores that failed and fell back to replay")
	metReplayFallbackSnippets = obs.GetCounter("storypivot_pipeline_replayed_snippets_total",
		"snippets replayed through identification at open")
	metIngestErrors = obs.GetCounter("storypivot_pipeline_ingest_errors_total",
		"snippets rejected by Ingest (validation, duplicate, storage failure)")
)

// Pipeline is the end-to-end StoryPivot system: extraction → (optional)
// persistence → story identification → story alignment → refinement.
// A Pipeline is safe for concurrent use.
type Pipeline struct {
	engine         *stream.Engine
	extractor      *extract.Extractor
	kb             *KnowledgeBase
	index          *index.Index
	retire         *retire.Manager // nil unless WithRetireWindow; immutable after New
	checkpointPath string
	// stripText marks tiered storage: the engine (and so the query
	// index, stories, and archive) holds snippets with display text and
	// source document removed, live and replayed alike (stripForEngine),
	// and rendering hydrates through SnippetText. Immutable after New.
	stripText bool
	warnings  []string // recovery findings from New (immutable after)

	mu     sync.Mutex
	store  *storage.Store
	closed bool
}

// ErrClosed reports use of a closed pipeline.
var ErrClosed = errors.New("storypivot: pipeline is closed")

// New creates a pipeline. With WithStorage, previously persisted snippets
// are replayed through identification before New returns.
func New(opts ...Option) (*Pipeline, error) {
	cfg := defaultsConfig()
	for _, o := range opts {
		o(cfg)
	}
	if err := cfg.stream.Identify.Validate(); err != nil {
		return nil, fmt.Errorf("storypivot: %w", err)
	}
	if err := cfg.stream.Align.Validate(); err != nil {
		return nil, fmt.Errorf("storypivot: %w", err)
	}
	if cfg.storageOpt.Tier != nil && cfg.storageDir == "" {
		// Tiering strips display text from the engine's snippets and
		// hydrates it back from the store; with no store the text would be
		// lost.
		return nil, fmt.Errorf("storypivot: tiered storage requires WithStorage")
	}
	if cfg.retire.Window > 0 && cfg.storageDir == "" {
		// An archive record names its members by snippet ID; the store
		// holds the snippets.
		return nil, fmt.Errorf("storypivot: retirement requires WithStorage")
	}
	p := &Pipeline{
		engine:    stream.NewEngine(cfg.stream),
		extractor: extract.NewExtractor(cfg.gazetteer),
		kb:        cfg.kb,
	}
	p.stripText = cfg.storageOpt.Tier != nil
	if cfg.storageDir != "" {
		if err := p.open(cfg); err != nil {
			p.release()
			return nil, err
		}
	}
	if p.retire != nil {
		p.engine.SetRetirer(p.retire)
	}
	// The query index attaches after the engine is final (restore may
	// have replaced it) so its first publish sees whatever result the
	// engine already computed.
	p.index = index.New(index.Options{})
	p.engine.SetResultSink(p.index)
	return p, nil
}

// open opens the store in cfg.storageDir and, with retirement, the
// archive under it, then rebuilds identification state from the store:
// a checkpoint restore, or a replay. On error the caller releases what
// open opened.
func (p *Pipeline) open(cfg *config) error {
	st, err := storage.Open(cfg.storageDir, cfg.storageOpt)
	if err != nil {
		return fmt.Errorf("storypivot: opening store: %w", err)
	}
	p.store = st
	p.checkpointPath = filepath.Join(cfg.storageDir, "checkpoint.json")
	p.warnings = append(p.warnings, st.RecoveryWarnings()...)
	if cfg.retire.Window > 0 {
		cfg.retire.Dir = filepath.Join(cfg.storageDir, "archive")
		// The reactivation policy mirrors the matching policies it stands
		// in for: ω for same-source evidence, alignment slack across
		// sources.
		cfg.retire.IdentWindow = cfg.stream.Identify.Window
		cfg.retire.AlignSlack = cfg.stream.Align.Slack
		mgr, err := retire.Open(cfg.retire, engineStore{st, p})
		if err != nil {
			return fmt.Errorf("storypivot: opening archive: %w", err)
		}
		p.retire = mgr
		p.warnings = append(p.warnings, mgr.RecoveryWarnings()...)
	}
	all := st.All()
	for _, sn := range all {
		p.stripForEngine(sn) // the decoded copies are ours
	}

	// Fast path: a valid checkpoint rebuilds identification state in
	// O(n) map inserts. Any inconsistency (stale, corrupt, missing)
	// falls back to full replay — the checkpoint is an optimisation,
	// never a source of truth. A checkpoint that *exists* but fails
	// to restore is surfaced: it usually means the store and the
	// checkpoint diverged (partial corruption, manual edits), and
	// silent replay would hide that signal.
	engine, err := p.tryRestore(cfg.stream, all)
	if err == nil {
		p.engine = engine
	} else {
		if !errors.Is(err, errNoCheckpoint) {
			metRestoreFallbacks.Inc()
			p.warnings = append(p.warnings, fmt.Sprintf(
				"checkpoint restore failed (%v); replaying %d snippets", err, len(all)))
		}
		if p.retire != nil {
			// Replay rebuilds every story resident, so whatever the
			// archive holds is stale by construction. Attaching the
			// retirer before the loop keeps the replay itself
			// memory-bounded: cold stories re-retire as the replayed
			// clock advances.
			if err := p.retire.Reset(); err != nil {
				return fmt.Errorf("storypivot: resetting archive: %w", err)
			}
			p.engine.SetRetirer(p.retire)
		}
		metReplayFallbackSnippets.Add(uint64(len(all)))
		for _, sn := range all {
			if _, err := p.engine.Ingest(sn); err != nil && !errors.Is(err, stream.ErrDuplicate) {
				return fmt.Errorf("storypivot: replaying snippet %d: %w", sn.ID, err)
			}
		}
	}
	maxID := SnippetID(0)
	for _, sn := range all {
		if sn.ID > maxID {
			maxID = sn.ID
		}
	}
	p.extractor.SetNextID(uint64(maxID))
	return nil
}

// Index exposes the query-serving index (size stats, publish epoch).
func (p *Pipeline) Index() *index.Index { return p.index }

// errNoCheckpoint reports the benign restore misses: no checkpoint file
// was ever written, or there is nothing to restore against. These select
// the replay path without a warning.
var errNoCheckpoint = errors.New("storypivot: no usable checkpoint")

// tryRestore attempts the checkpoint fast path; any failure selects the
// replay path. Failures other than errNoCheckpoint indicate a
// checkpoint that exists but could not be honoured.
func (p *Pipeline) tryRestore(opts stream.Options, snippets []*Snippet) (*stream.Engine, error) {
	if p.checkpointPath == "" || len(snippets) == 0 {
		return nil, errNoCheckpoint
	}
	f, err := os.Open(p.checkpointPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, errNoCheckpoint
		}
		return nil, err
	}
	defer f.Close()
	cp, err := stream.ReadCheckpoint(f)
	if err != nil {
		return nil, err
	}
	var verify func(StoryID) bool
	if p.retire != nil {
		verify = p.retire.Has
	}
	engine, err := stream.RestoreEngineArchived(opts, snippets, cp, verify)
	if err != nil {
		return nil, err
	}
	if p.retire != nil {
		// Archive records for stories the checkpoint considers resident
		// (retired after the checkpoint was written, or reactivated and
		// re-checkpointed) are stale; drop them from the reactivation
		// index so they cannot resurrect a story that is already live.
		keep := make(map[StoryID]bool)
		for _, sc := range cp.Sources {
			for _, sid := range sc.Archived {
				keep[sid] = true
			}
		}
		p.retire.Reconcile(keep)
	}
	if len(cp.Tier) > 0 {
		// Checkpoint v3 carries the chunk manifest of the tiered store.
		// The chunks already self-healed when the store opened; the
		// reconcile surfaces what changed behind the checkpoint's back
		// (a chunk vanished, rows truncated) as recovery warnings.
		p.warnings = append(p.warnings, p.store.TierReconcile(cp.Tier)...)
	}
	return engine, nil
}

// RecoveryWarnings returns the partial-corruption findings collected
// while New opened the store and rebuilt state: torn segment tails,
// undecodable records, and checkpoint restores that fell back to
// replay. Empty means recovery was clean (or storage is disabled).
func (p *Pipeline) RecoveryWarnings() []string {
	return append([]string(nil), p.warnings...)
}

// WriteCheckpoint persists the current identification state next to the
// event store, making the next New over the same directory an O(n)
// restore instead of a full replay. It is called automatically by Close;
// long-running processes may call it periodically. Without WithStorage it
// is a no-op.
func (p *Pipeline) WriteCheckpoint() error {
	p.mu.Lock()
	path := p.checkpointPath
	closed := p.closed
	st := p.store
	p.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if path == "" {
		return nil
	}
	span := metCheckpointLat.Start()
	// AtomicWrite fsyncs the temp file before the rename and the parent
	// directory after it: without both, a crash right after Close could
	// lose the checkpoint the rename claimed to publish. Error paths
	// never leave a temp file behind.
	cp := p.engine.Checkpoint()
	if st != nil {
		if m, err := st.TierManifestJSON(); err == nil {
			cp.Tier = m
		}
	}
	if err := storage.AtomicWrite(path, cp.Write); err != nil {
		return err
	}
	metCheckpointWrites.Inc()
	span.End()
	return nil
}

// AddDocument extracts snippets from a raw document and ingests them.
// It returns the extracted snippets (with assigned IDs and stories).
// Every snippet is attempted; if any fail, the joined per-snippet
// errors are returned alongside the extracted set.
func (p *Pipeline) AddDocument(doc *Document) ([]*Snippet, error) {
	snippets, _, errs := p.AddDocumentStats(doc)
	return snippets, errors.Join(errs...)
}

// AddDocumentStats is AddDocument with per-snippet accounting: it
// reports how many extracted snippets were accepted and the individual
// ingest errors (with snippet context) for those that were not. The
// HTTP layer surfaces these counts in POST /api/documents responses.
func (p *Pipeline) AddDocumentStats(doc *Document) (snippets []*Snippet, accepted int, errs []error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, 0, []error{ErrClosed}
	}
	p.mu.Unlock()
	snippets, err := p.extractor.Extract(doc)
	if err != nil {
		return nil, 0, []error{err}
	}
	accepted, errs = p.IngestAllErrs(snippets)
	metDocuments.Inc()
	return snippets, accepted, errs
}

// Ingest feeds one pre-extracted snippet into the pipeline (persisting it
// first when storage is enabled).
func (p *Pipeline) Ingest(sn *Snippet) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	st := p.store
	p.mu.Unlock()
	span := metPipelineIngest.Start()
	if st != nil {
		// The engine refuses a source whose ID namespace another source
		// claimed; the store must not hold its snippet, or every replay
		// of the store would refuse it again and fail the open.
		if err := p.engine.AddSource(sn.Source); err != nil {
			return err
		}
		if err := st.Append(sn); err != nil {
			return err
		}
	}
	eng := sn
	if p.stripText && (sn.Text != "" || sn.Document != "") {
		eng = sn.Clone() // the caller's snippet keeps its text
		p.stripForEngine(eng)
	}
	_, err := p.engine.Ingest(eng)
	if err == nil {
		span.End()
	}
	return err
}

// stripForEngine applies the one rule for what text the engine holds:
// under tiered storage the store keeps the full payload and everything
// downstream of it (engine, index, archive) gets the snippet with its
// display-only fields stripped, so resident story state stops scaling
// with text size; rendering hydrates via SnippetText. Otherwise the
// engine keeps the text.
func (p *Pipeline) stripForEngine(sn *Snippet) {
	if p.stripText {
		sn.Text, sn.Document = "", ""
	}
}

// engineStore is the store as retirement reads it: archived members
// come back as the engine holds them (stripForEngine).
type engineStore struct {
	*storage.Store
	p *Pipeline
}

func (s engineStore) Get(id SnippetID) *Snippet {
	sn := s.Store.Get(id)
	if sn != nil {
		s.p.stripForEngine(sn) // Get decodes a fresh copy
	}
	return sn
}

// IngestAll ingests a batch, skipping snippets that fail, and returns the
// number accepted.
func (p *Pipeline) IngestAll(snippets []*Snippet) int {
	n, _ := p.IngestAllErrs(snippets)
	return n
}

// IngestAllErrs ingests a batch, attempting every snippet, and returns
// the number accepted plus one error per rejected snippet, each wrapped
// with the snippet's identity so a failed batch is diagnosable
// per-record instead of being silently dropped.
func (p *Pipeline) IngestAllErrs(snippets []*Snippet) (accepted int, errs []error) {
	for _, sn := range snippets {
		if err := p.Ingest(sn); err != nil {
			metIngestErrors.Inc()
			errs = append(errs, fmt.Errorf("snippet %d (source %s): %w", sn.ID, sn.Source, err))
			continue
		}
		accepted++
	}
	return accepted, errs
}

// Sources returns the data sources seen so far, sorted.
func (p *Pipeline) Sources() []SourceID { return p.engine.Sources() }

// RemoveSource detaches a source and all its stories from the live result
// (persisted snippets remain in the store).
func (p *Pipeline) RemoveSource(src SourceID) bool { return p.engine.RemoveSource(src) }

// Stories returns the current per-source stories of src ("Stories per
// Source" module, paper Figure 5).
func (p *Pipeline) Stories(src SourceID) []*Story { return p.engine.Stories(src) }

// Align forces a settle: a re-alignment whose fresh result is published
// to the queries and returned.
func (p *Pipeline) Align() *Result { return &Result{inner: p.engine.Align()} }

// Result settles and returns the current alignment result, aligning only
// if anything changed since the last settle. A settle publishes the
// result: queries (Search, Timeline, Published, ...) see what the last
// settle published and never settle themselves.
func (p *Pipeline) Result() *Result { return &Result{inner: p.engine.Result()} }

// Published returns the result of the last settle without settling and
// without waiting for a settle in progress; it is empty before the first.
func (p *Pipeline) Published() *Result { return &Result{inner: p.engine.Published()} }

// IntegratedStories settles and returns all current integrated stories
// ("Snippets per Story" module, paper Figure 6); it is
// Result().Integrated().
func (p *Pipeline) IntegratedStories() []*IntegratedStory { return p.Result().Integrated() }

// StoryOf returns the per-source story a snippet currently belongs to
// (0 if unknown).
func (p *Pipeline) StoryOf(src SourceID, id SnippetID) StoryID {
	return p.engine.StoryOf(src, id)
}

// Snippet returns a persisted snippet by ID (requires WithStorage).
func (p *Pipeline) Snippet(id SnippetID) *Snippet {
	p.mu.Lock()
	st := p.store
	p.mu.Unlock()
	if st == nil {
		return nil
	}
	return st.Get(id)
}

// SnippetReader hydrates display text for result rendering. Under
// tiered storage the engine's resident snippets carry no text; views
// fetch it from the snippet's storage tier on demand.
type SnippetReader interface {
	SnippetText(id SnippetID) (text, document string, ok bool)
}

// SnippetText returns the display text and source document of a stored
// snippet, implementing SnippetReader (requires WithStorage; without it
// ok is always false and callers fall back to the text the snippet
// itself carries).
func (p *Pipeline) SnippetText(id SnippetID) (text, document string, ok bool) {
	p.mu.Lock()
	st := p.store
	closed := p.closed
	p.mu.Unlock()
	if closed || st == nil {
		return "", "", false
	}
	return st.SnippetText(id)
}

// TierStats reports the store's chunk occupancy and fault counters; ok
// is false when there is no store.
func (p *Pipeline) TierStats() (storage.TierStats, bool) {
	p.mu.Lock()
	st := p.store
	p.mu.Unlock()
	if st == nil {
		return storage.TierStats{}, false
	}
	return st.TierStats(), true
}

// Close releases the pipeline's resources, writing a checkpoint and
// flushing the store when persistence is enabled.
func (p *Pipeline) Close() error {
	if err := p.WriteCheckpoint(); err != nil && !errors.Is(err, ErrClosed) {
		// Checkpointing is best-effort: a failed write only costs the
		// next open a replay, so it must not block shutdown.
		_ = err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	p.closed = true
	return p.release()
}

// release closes the archive and the store, whichever are open.
func (p *Pipeline) release() error {
	var err error
	if p.retire != nil {
		err = p.retire.Close()
	}
	if p.store != nil {
		if cerr := p.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Engine exposes the underlying stream engine for advanced integrations
// (statistics module, benchmarks).
func (p *Pipeline) Engine() *stream.Engine { return p.engine }

// Retire exposes the story-retirement manager (window state, live policy
// rebasing); nil unless WithRetireWindow enabled retirement.
func (p *Pipeline) Retire() *retire.Manager { return p.retire }
