package identify

import (
	"sort"

	"repro/internal/event"
)

// RunSource batch-identifies a single source's snippets (processed in the
// order given) and returns the identifier for inspection.
func RunSource(source event.SourceID, snippets []*event.Snippet, cfg Config, alloc *IDAlloc) *Identifier {
	id := New(source, cfg, alloc)
	for _, s := range snippets {
		id.Process(s)
	}
	if cfg.RepairEvery > 0 {
		id.Repair() // final pass over the tail
	}
	return id
}

// RunAll partitions a mixed-source snippet stream by source (preserving
// order within each source, per the paper's Figure 1b: sources are
// processed independently) and identifies each. It returns the per-source
// identifiers keyed by source.
func RunAll(snippets []*event.Snippet, cfg Config, alloc *IDAlloc) map[event.SourceID]*Identifier {
	if alloc == nil {
		alloc = &IDAlloc{}
	}
	bySource := make(map[event.SourceID][]*event.Snippet)
	var order []event.SourceID
	for _, s := range snippets {
		if _, ok := bySource[s.Source]; !ok {
			order = append(order, s.Source)
		}
		bySource[s.Source] = append(bySource[s.Source], s)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make(map[event.SourceID]*Identifier, len(order))
	for _, src := range order {
		out[src] = RunSource(src, bySource[src], cfg, alloc)
	}
	return out
}

// StoriesBySource extracts the story sets from a set of identifiers, the
// input shape story alignment consumes.
func StoriesBySource(ids map[event.SourceID]*Identifier) map[event.SourceID][]*event.Story {
	out := make(map[event.SourceID][]*event.Story, len(ids))
	for src, id := range ids {
		out[src] = id.Stories()
	}
	return out
}

// MergedAssignment combines the per-source snippet→story assignments of
// several identifiers into one map (story IDs are globally unique, so no
// relabelling is needed).
func MergedAssignment(ids map[event.SourceID]*Identifier) map[event.SnippetID]event.StoryID {
	out := make(map[event.SnippetID]event.StoryID)
	for _, id := range ids {
		for k, v := range id.assign {
			out[k] = v
		}
	}
	return out
}
