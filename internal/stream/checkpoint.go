package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/event"
	"repro/internal/identify"
)

// Checkpoint is a serialisable snapshot of the engine's identification
// state: for every source, the snippet→story assignment. Together with
// the snippets themselves (which the event store persists), it lets a
// restart rebuild the exact story structure in O(n) instead of
// re-running similarity search over the whole history.
//
// Alignment state is deliberately NOT checkpointed: it is derived from
// the per-source stories and rebuilding it is a single alignment pass.
type Checkpoint struct {
	Version int                                 `json:"version"`
	Sources map[event.SourceID]SourceCheckpoint `json:"sources"`
	// Tier carries the tiered store's chunk manifest (version 3). The
	// stream layer treats it as opaque: the pipeline fills it in when
	// tiered storage is enabled and hands it back to the store at
	// restore, which reconciles it against the on-disk chunks the same
	// way retire's archive reconcile works.
	Tier json.RawMessage `json:"tier,omitempty"`
}

// SourceCheckpoint is one source's assignment table.
type SourceCheckpoint struct {
	// Assign maps snippet ID → story ID.
	Assign map[event.SnippetID]event.StoryID `json:"assign"`
	// Archived lists the source's stories that were retired to the cold
	// archive at checkpoint time (version 2). Their snippets still appear
	// in Assign — the identifier keeps assignment entries past
	// detachment — but the stories themselves must be recovered from the
	// archive, not rebuilt from snippets.
	Archived []event.StoryID `json:"archived,omitempty"`
}

const checkpointVersion = 3

// ErrCheckpointStale reports a checkpoint that does not cover the
// snippets it is being restored against.
var ErrCheckpointStale = errors.New("stream: checkpoint stale")

// Checkpoint captures the current identification state. It holds e.mu,
// under which retirement and reactivation run too, so a story's snippets
// and its place in Archived agree.
func (e *Engine) Checkpoint() *Checkpoint {
	e.mu.Lock()
	defer e.mu.Unlock()
	cp := &Checkpoint{Version: checkpointVersion, Sources: make(map[event.SourceID]SourceCheckpoint, len(e.ids))}
	for src, id := range e.ids {
		sc := SourceCheckpoint{Assign: id.Assignments()}
		if e.retirer != nil {
			sc.Archived = e.retirer.ArchivedIDs(src)
		}
		cp.Sources[src] = sc
	}
	return cp
}

// Write serialises the checkpoint as JSON.
func (c *Checkpoint) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(c)
}

// ReadCheckpoint parses a checkpoint.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("stream: reading checkpoint: %w", err)
	}
	if c.Version < 1 || c.Version > checkpointVersion {
		return nil, fmt.Errorf("stream: unsupported checkpoint version %d", c.Version)
	}
	return &c, nil
}

// RestoreEngineArchived rebuilds an engine from persisted snippets plus a
// checkpoint. The snippets are partitioned by source; every snippet must
// be covered by the checkpoint or ErrCheckpointStale is returned (the
// caller then falls back to replaying through Ingest). The restored
// identifiers hold every snippet's assignment, so a redelivery of a
// restored snippet is a duplicate; the entity statistics and time range
// are rebuilt from the snippets.
//
// For checkpoints written under story retirement, verify reports whether
// an archived story ID is still present in the cold archive; every ID in
// the checkpoint's Archived lists must pass it, otherwise the checkpoint
// and archive have diverged and ErrCheckpointStale sends the caller to
// replay. A nil verify with a non-empty Archived list is likewise stale:
// the caller has no archive to recover those stories from.
func RestoreEngineArchived(opts Options, snippets []*event.Snippet, cp *Checkpoint,
	verify func(event.StoryID) bool) (*Engine, error) {
	if cp == nil || cp.Sources == nil {
		return nil, ErrCheckpointStale
	}
	archived := make(map[event.StoryID]bool)
	for src, sc := range cp.Sources {
		for _, sid := range sc.Archived {
			if verify == nil {
				return nil, fmt.Errorf("%w: source %s has archived stories but no archive", ErrCheckpointStale, src)
			}
			if !verify(sid) {
				return nil, fmt.Errorf("%w: archived story %d missing from archive", ErrCheckpointStale, sid)
			}
			archived[sid] = true
		}
	}
	e := NewEngine(opts)
	bySource := make(map[event.SourceID][]*event.Snippet)
	var order []event.SourceID
	for _, sn := range snippets {
		if _, ok := bySource[sn.Source]; !ok {
			order = append(order, sn.Source)
		}
		bySource[sn.Source] = append(bySource[sn.Source], sn)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, src := range order {
		sc, ok := cp.Sources[src]
		if !ok {
			return nil, fmt.Errorf("%w: source %s not covered", ErrCheckpointStale, src)
		}
		tag := identify.SourceTag(src)
		if owner, taken := e.tagOwner[tag]; taken && owner != src {
			return nil, fmt.Errorf("%w: %v (%q vs %q)", ErrCheckpointStale, ErrSourceCollision, src, owner)
		}
		e.tagOwner[tag] = src
		alloc := identify.NewSourceAlloc(src)
		e.allocs[src] = alloc
		id, err := identify.RestoreWithArchived(src, opts.Identify, alloc, bySource[src], sc.Assign, archived)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCheckpointStale, err)
		}
		e.ids[src] = id
		e.dirty[src] = id.Pending()
		row := rowOf(id)
		for _, sn := range bySource[src] {
			e.stats.add(sn, row)
		}
	}
	metRestoreOK.Inc()
	metSourcesGauge.Set(int64(len(e.ids)))
	e.setDirtyGauge()
	return e, nil
}
