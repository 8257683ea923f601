package storage

import (
	"fmt"
	"sort"
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
	// SegmentSize is the rotation threshold in bytes (default 64 MiB).
	SegmentSize int64
	// Sync selects the durability policy (default SyncNever).
	Sync SyncPolicy
	// SyncEvery is the batch size for SyncBatch (default 256).
	SyncEvery int
	// Tier, when non-nil, replaces the flat log + fully-resident ID map
	// with the chunked hot/warm/cold store: only per-chunk metadata stays
	// in memory and snippet payloads are fetched from their tier on
	// demand. See TierOptions. Accessors behave identically except that
	// All returns display-text-stripped snippets (callers hydrate via
	// SnippetText) and per-snippet reads may touch disk.
	Tier *TierOptions
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 64 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 256
	}
	return o
}

// Store is the embedded event repository. All snippets are persisted in an
// append-only segmented log and held in memory by ID; entity, time, and
// source lookups are the query index's job (internal/index), not the
// store's. A Store is safe for concurrent use.
type Store struct {
	mu           sync.RWMutex
	log          *segLog // the flat log; nil in tiered mode
	closed       bool
	recoveryDrop int64    // bytes dropped from torn tails at open
	warnings     []string // partial-corruption findings from replay at open

	// byID holds every snippet; in tiered mode it stays nil and tier
	// serves every lookup.
	byID map[event.SnippetID]*event.Snippet
	tier *TierStore
}

// Open opens (creating if necessary) a store in dir, replaying all
// segments to rebuild the ID map. Partial corruption does not fail the
// open; it is surfaced instead: torn tails from a previous crash are
// truncated (RecoveredDrop reports how many bytes were discarded),
// well-framed records whose payload no longer decodes are skipped, and
// every such finding is recorded in RecoveryWarnings and counted in the
// obs registry.
func Open(dir string, opts Options) (*Store, error) {
	span := metOpenLat.Start()
	defer span.End()
	opts = opts.withDefaults()
	s := &Store{}
	if opts.Tier != nil {
		t, err := openTierStore(dir, *opts.Tier, opts.Sync, opts.SyncEvery)
		if err != nil {
			return nil, err
		}
		// Carry a pre-tiering corpus forward: any flat-log segments in
		// the directory are replayed into chunks (idempotently).
		if err := t.importSegments(dir); err != nil {
			t.Close()
			return nil, err
		}
		s.tier = t
		s.warnings = append(s.warnings, t.warnings...)
		s.recoveryDrop += t.dropped
		return s, nil
	}
	s.byID = make(map[event.SnippetID]*event.Snippet)
	corrupt := 0
	log, err := openSegLog(dir, opts.SegmentSize, opts.Sync, opts.SyncEvery, func(_ int, _ int64, payload []byte) error {
		metReplayed.Inc()
		sn, derr := event.Decode(payload)
		if derr != nil {
			// The frame's CRC was intact but the payload is not a
			// snippet: logical corruption (or a foreign writer).
			// Dropping one record loses one snippet; failing the
			// open loses the store. Skip, count, and report.
			corrupt++
			metReplayCorrupt.Inc()
			return nil
		}
		// Replay is idempotent: a record that appears in two
		// segments is kept once; the first occurrence wins.
		if _, dup := s.byID[sn.ID]; !dup {
			s.byID[sn.ID] = sn
		}
		return nil
	}, func(seg int, torn int64) {
		if corrupt > 0 {
			s.warnings = append(s.warnings, fmt.Sprintf(
				"segment %d: skipped %d well-framed records with undecodable payloads", seg, corrupt))
			corrupt = 0
		}
		if torn > 0 {
			s.warnings = append(s.warnings, fmt.Sprintf(
				"segment %d: truncated %d torn-tail bytes", seg, torn))
			s.recoveryDrop += torn
		}
	})
	if err != nil {
		return nil, err
	}
	s.log = log
	return s, nil
}

// RecoveredDrop returns the number of torn-tail bytes truncated at Open.
func (s *Store) RecoveredDrop() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recoveryDrop
}

// RecoveryWarnings returns a copy of the partial-corruption findings
// from the replay at Open: torn tails truncated and undecodable records
// skipped. An empty list means the log replayed clean.
func (s *Store) RecoveryWarnings() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.warnings...)
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
	if s.tier != nil {
		if s.tier.Has(sn.ID) {
			return fmt.Errorf("%w %d", ErrDuplicate, sn.ID)
		}
		if err := s.tier.Append(sn); err != nil {
			return err
		}
		span.End()
		return nil
	}
	if _, dup := s.byID[sn.ID]; dup {
		return fmt.Errorf("%w %d", ErrDuplicate, sn.ID)
	}
	payload := event.AppendEncode(nil, sn)
	if _, _, err := s.log.append(payload); err != nil {
		return err
	}
	metAppends.Inc()
	metAppendBytes.Add(uint64(headerSize + len(payload)))
	s.byID[sn.ID] = sn.Clone()
	span.End()
	return nil
}

// Get returns the snippet with the given ID, or nil if absent. In
// tiered mode the snippet is decoded from its chunk (a fresh copy per
// call) and a read failure surfaces as nil plus a recovery warning.
func (s *Store) Get(id event.SnippetID) *event.Snippet {
	if s.tier != nil {
		// Tier reads mutate LRU/promotion state; take the write lock.
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return nil
		}
		sn, err := s.tier.Get(id)
		if err != nil {
			s.warnings = append(s.warnings, err.Error())
			return nil
		}
		return sn
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byID[id]
}

// SnippetText returns the display text and source document of a stored
// snippet. It is the hydration point for result rendering when the
// engine holds text-stripped snippets (tiered mode).
func (s *Store) SnippetText(id event.SnippetID) (text, document string, ok bool) {
	if s.tier != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return "", "", false
		}
		sn, err := s.tier.Get(id)
		if err != nil || sn == nil {
			return "", "", false
		}
		return sn.Text, sn.Document, true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sn := s.byID[id]
	if sn == nil {
		return "", "", false
	}
	return sn.Text, sn.Document, true
}

// Len returns the number of stored snippets.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.tier != nil {
		return int(s.tier.Rows())
	}
	return len(s.byID)
}

// All returns every snippet in chronological order (timestamp, then
// ID), sorted on each call — the pipeline asks once, to replay at open.
// In tiered mode the returned snippets carry entities, terms, and
// timestamps but have their display text and source document stripped —
// replay and identification never read them, and keeping 10M text
// bodies out of one slice is the whole point of the tiers. Callers that
// render text hydrate through SnippetText.
func (s *Store) All() []*event.Snippet {
	var out []*event.Snippet
	s.mu.Lock() // a tier scan mutates LRU/promotion state
	if s.tier == nil {
		out = make([]*event.Snippet, 0, len(s.byID))
		for _, sn := range s.byID {
			out = append(out, sn)
		}
	} else if !s.closed {
		err := s.tier.Scan(func(sn *event.Snippet) error {
			sn.Text, sn.Document = "", ""
			out = append(out, sn)
			return nil
		})
		if err != nil {
			s.warnings = append(s.warnings, err.Error())
		}
	}
	s.mu.Unlock()
	sort.Sort(event.ByTimestamp(out))
	return out
}

// TierStats summarises chunk tier occupancy; ok is false when tiering
// is off.
func (s *Store) TierStats() (TierStats, bool) {
	if s.tier == nil {
		return TierStats{}, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tier.Stats(), true
}

// TierManifestJSON serialises the live chunk manifest for checkpoint v3;
// nil when tiering is off.
func (s *Store) TierManifestJSON() ([]byte, error) {
	if s.tier == nil {
		return nil, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tier.ManifestJSON()
}

// TierReconcile compares a checkpointed chunk manifest against the live
// chunk state, returning divergence findings (the chunks themselves
// already self-healed at Open).
func (s *Store) TierReconcile(manifest []byte) []string {
	if s.tier == nil || len(manifest) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tier.ReconcileManifest(manifest)
}

// Sync forces an fsync of the active segment (or open chunk).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.tier != nil {
		return s.tier.Sync()
	}
	return s.log.seg.Sync()
}

// Close syncs and closes the store. Further operations return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	if s.tier != nil {
		return s.tier.Close()
	}
	return s.log.seg.Close()
}
