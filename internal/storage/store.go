package storage

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/event"
)

// SyncPolicy controls when appends are fsynced to disk.
type SyncPolicy int

const (
	// SyncNever leaves flushing to the OS; fastest, loses recent appends
	// on machine crash (process crash is still safe: writes go straight to
	// the page cache).
	SyncNever SyncPolicy = iota
	// SyncAlways fsyncs after every append; durable, slow.
	SyncAlways
	// SyncBatch fsyncs every Options.SyncEvery appends.
	SyncBatch
)

// Options configures a Store.
type Options struct {
	// Sync selects the durability policy (default SyncNever).
	Sync SyncPolicy
	// SyncEvery is the batch size for SyncBatch (default 256).
	SyncEvery int
	// Tier bounds how many sealed chunks stay mapped (see TierOptions).
	// Nil maps every sealed chunk: nothing goes cold or is compressed.
	Tier *TierOptions
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 256
	}
	return o
}

// Store is the embedded event repository: snippets persisted in chunk
// files (tier.go) and read back by ID; entity, time, and source lookups
// are the query index's job (internal/index), not the store's. A Store
// is safe for concurrent use.
type Store struct {
	mu     sync.Mutex // also guards tier reads, which move LRU and promotion state
	tier   *TierStore
	closed bool
}

// Open opens (creating if necessary) a store in dir. A directory a flat
// segment log wrote is migrated into chunks on this first open. Partial
// corruption does not fail the open; it is surfaced instead: torn tails
// from a previous crash are truncated (RecoveredDrop reports how many
// bytes were discarded), well-framed records whose payload no longer
// decodes are skipped, and every such finding is recorded in
// RecoveryWarnings and counted in the obs registry.
func Open(dir string, opts Options) (*Store, error) {
	span := metOpenLat.Start()
	defer span.End()
	opts = opts.withDefaults()
	tier := TierOptions{WarmChunks: math.MaxInt}
	if opts.Tier != nil {
		tier = *opts.Tier
	}
	t, err := openTierStore(dir, tier, opts.Sync, opts.SyncEvery)
	if err != nil {
		return nil, err
	}
	if err := t.migrateSegments(dir); err != nil {
		t.Close()
		return nil, err
	}
	return &Store{tier: t}, nil
}

// RecoveredDrop returns the number of torn-tail bytes truncated at Open.
func (s *Store) RecoveredDrop() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tier.dropped
}

// RecoveryWarnings returns a copy of the partial-corruption findings
// from recovery at Open: torn tails truncated and undecodable records
// skipped. An empty list means the store opened clean.
func (s *Store) RecoveryWarnings() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.tier.warnings...)
}

// Append validates and persists a snippet. The snippet must have a unique
// ID; duplicate IDs are rejected.
func (s *Store) Append(sn *event.Snippet) error {
	if err := sn.Validate(); err != nil {
		return err
	}
	span := metAppendLat.Start()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.tier.Has(sn.ID) {
		return fmt.Errorf("%w %d", ErrDuplicate, sn.ID)
	}
	if err := s.tier.Append(sn); err != nil {
		return err
	}
	span.End()
	return nil
}

// Get returns the snippet with the given ID, or nil if absent. The
// snippet is decoded from its chunk, a fresh copy per call; a read
// failure surfaces as nil plus a recovery warning.
func (s *Store) Get(id event.SnippetID) *event.Snippet {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	sn, err := s.tier.Get(id)
	if err != nil {
		s.tier.warnings = append(s.tier.warnings, err.Error())
		return nil
	}
	return sn
}

// SnippetText returns the display text and source document of a stored
// snippet. It is the hydration point for result rendering when the
// engine holds text-stripped snippets.
func (s *Store) SnippetText(id event.SnippetID) (text, document string, ok bool) {
	sn := s.Get(id)
	if sn == nil {
		return "", "", false
	}
	return sn.Text, sn.Document, true
}

// Len returns the number of stored snippets.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.tier.Rows())
}

// All returns every snippet, freshly decoded, in chronological order
// (timestamp, then ID) — the pipeline asks once, to replay at open.
func (s *Store) All() []*event.Snippet {
	var out []*event.Snippet
	s.mu.Lock()
	if !s.closed {
		err := s.tier.Scan(func(sn *event.Snippet) error {
			out = append(out, sn)
			return nil
		})
		if err != nil {
			s.tier.warnings = append(s.tier.warnings, err.Error())
		}
	}
	s.mu.Unlock()
	slices.SortFunc(out, event.CompareByTimestamp)
	return out
}

// TierStats summarises chunk tier occupancy.
func (s *Store) TierStats() TierStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tier.Stats()
}

// TierManifestJSON serialises the live chunk manifest for checkpoint v3.
func (s *Store) TierManifestJSON() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tier.ManifestJSON()
}

// TierReconcile compares a checkpointed chunk manifest against the live
// chunk state, returning divergence findings (the chunks themselves
// already self-healed at Open).
func (s *Store) TierReconcile(manifest []byte) []string {
	if len(manifest) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tier.ReconcileManifest(manifest)
}

// Sync forces an fsync of the open chunk.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.tier.Sync()
}

// Close syncs and closes the store. Further operations return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	return s.tier.Close()
}
