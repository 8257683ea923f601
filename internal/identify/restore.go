package identify

import (
	"fmt"

	"repro/internal/event"
)

// Bump advances the allocator so that Next never returns an ID <= n.
// Restoring from a checkpoint uses it to continue the ID space past the
// stories it rebuilt. n is a full story ID: the allocator's namespace
// base is stripped before advancing the sequence, so restore works both
// for namespaced IDs and for legacy checkpoints whose IDs predate the
// namespace scheme (their full value simply becomes the sequence floor).
func (a *IDAlloc) Bump(n uint64) {
	if n > a.base {
		n -= a.base
	} else {
		n = 0
	}
	for {
		cur := a.n.Load()
		if cur >= n || a.n.CompareAndSwap(cur, n) {
			return
		}
	}
}

// RestoreWithArchived rebuilds an identifier from a persisted assignment:
// the snippets of one source plus the snippet→story mapping captured by a
// checkpoint. The rebuilt identifier is behaviourally identical to the
// one that produced the checkpoint — same stories, same aggregates, same
// entity statistics — but costs O(n) map updates instead of the full
// similarity search of reprocessing.
//
// Snippets not present in the assignment are rejected (the checkpoint is
// stale); callers should fall back to reprocessing in that case. Every
// rebuilt story starts recorded for the first Drain.
//
// Under story retirement, snippets assigned to an archived story are
// accounted for — assignment entry, processed count, entity IDF
// statistics, all of which the live identifier retained past the story's
// detachment — but their stories are NOT rebuilt, so a restart stays as
// bounded as the process that wrote the checkpoint. The archived stories
// themselves live in the cold-story archive and return through the
// reactivation path.
func RestoreWithArchived(source event.SourceID, cfg Config, alloc *IDAlloc,
	snippets []*event.Snippet, assign map[event.SnippetID]event.StoryID,
	archived map[event.StoryID]bool) (*Identifier, error) {
	id := New(source, cfg, alloc)
	var maxStory event.StoryID
	for _, sn := range snippets {
		if sn.Source != source {
			return nil, fmt.Errorf("identify: snippet %d of source %q in restore of %q", sn.ID, sn.Source, source)
		}
		sid, ok := assign[sn.ID]
		if !ok {
			return nil, fmt.Errorf("identify: snippet %d missing from checkpoint assignment", sn.ID)
		}
		if sid > maxStory {
			maxStory = sid
		}
		if archived[sid] {
			sn.EnsureInterned()
			id.assign[sn.ID] = sid
			id.stats.Processed++
			if cfg.UseEntityIDF {
				for _, e := range sn.EntityIDs {
					id.ents.Add(e, 1)
				}
			}
			continue
		}
		st := id.stories[sid]
		if st == nil {
			st = event.NewStory(sid, source)
			id.stories[sid] = st
			id.order = append(id.order, sid)
			id.touch(sid)
		}
		st.Add(sn) // interns sn as a side effect
		id.assign[sn.ID] = sid
		id.stats.Processed++
		if cfg.UseEntityIDF {
			for _, e := range sn.EntityIDs {
				id.ents.Add(e, 1)
			}
		}
	}
	if id.lsh != nil {
		for _, st := range id.stories {
			id.indexStory(st)
		}
	}
	alloc.Bump(uint64(maxStory))
	return id, nil
}

// Assignments exports the per-snippet story assignment for checkpointing.
// (Assignment already returns a copy; this alias names the intent.)
func (id *Identifier) Assignments() map[event.SnippetID]event.StoryID { return id.Assignment() }
