package identify

import (
	"sort"

	"repro/internal/event"
	"repro/internal/similarity"
)

// splitWeights is the similarity combination used for the intra-story
// connectivity graph. Story splits are about *content* divergence despite
// shared actors — the paper's example is the Ukraine crisis, whose
// political and economic threads "were interwoven ... while they started
// to separate after the situation had (temporarily) stabilized" with the
// same entities throughout. Entity overlap therefore gets little weight
// here; it would glue every thread of a shared-actor story together.
var splitWeights = similarity.Weights{Entity: 0.15, Description: 0.70, Temporal: 0.15}

// Repair runs the incremental split/merge pass (paper §2.2: "we observe
// that it is possible for stories to split into multiple substories or to
// merge into a bigger story ... we incrementally construct stories").
//
// Split: within each story, snippets are connected when their pairwise
// similarity (restricted to temporal neighbours) clears SplitThreshold;
// if the graph decomposes into multiple connected components the story is
// split, the largest component keeping the original ID.
//
// Merge: story pairs whose extents overlap and whose story-level
// similarity clears MergeThreshold are merged, the larger story absorbing
// the smaller.
func (id *Identifier) Repair() {
	span := metRepairLat.Start()
	defer span.End()
	startSplits, startMerges := id.stats.Splits, id.stats.Merges
	defer func() {
		metSplits.Add(uint64(id.stats.Splits - startSplits))
		metMerges.Add(uint64(id.stats.Merges - startMerges))
	}()
	id.stats.RepairRuns++
	id.repairSplits()
	id.repairMerges()
}

// neighborSpan bounds how many temporal neighbours each snippet is
// compared against when building the internal connectivity graph; this
// keeps split detection O(n·k) per story.
const neighborSpan = 6

func (id *Identifier) repairSplits() {
	// Collect story IDs first: splitting mutates the story map.
	ids := make([]event.StoryID, 0, len(id.stories))
	for _, sid := range id.order {
		if id.stories[sid] != nil {
			ids = append(ids, sid)
		}
	}
	for _, sid := range ids {
		st := id.stories[sid]
		if st == nil || st.Len() < 4 {
			continue
		}
		comps := id.components(st)
		if len(comps) < 2 {
			continue
		}
		// Largest component keeps the original story ID; the others get
		// fresh stories.
		sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
		for _, comp := range comps[1:] {
			ns := event.NewStory(id.alloc.Next(), id.source)
			for _, sn := range comp {
				st.Remove(sn.ID)
				ns.Add(sn)
				id.assign[sn.ID] = ns.ID
			}
			id.stories[ns.ID] = ns
			id.order = append(id.order, ns.ID)
			id.indexStory(ns)
			id.touch(ns.ID)
			id.stats.Splits++
		}
		id.reindexStory(st)
		id.touch(sid)
	}
}

// ufFind is union-find lookup with path halving over a parent slice.
func ufFind(parent []int, x int) int {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// components builds the windowed similarity graph over the story's
// snippets and returns its connected components, or nil when the story is
// fully connected. Repair runs this for every sufficiently large story on
// every pass, and almost all stories are NOT split — so the common path
// must not allocate: the union-find scratch lives on the identifier and
// the per-component slices are only built once a split is certain.
func (id *Identifier) components(st *event.Story) [][]*event.Snippet {
	n := st.Len()
	if cap(id.ufScratch) < n {
		id.ufScratch = make([]int, n)
	}
	parent := id.ufScratch[:n]
	for i := range parent {
		parent[i] = i
	}
	sns := st.Snippets // chronological
	for i := 0; i < n; i++ {
		for j := i + 1; j < n && j <= i+neighborSpan; j++ {
			if similarity.Snippets(sns[i], sns[j], id.cfg.TemporalScale, splitWeights) >= id.cfg.SplitThreshold {
				if ra, rb := ufFind(parent, i), ufFind(parent, j); ra != rb {
					parent[ra] = rb
				}
			}
		}
	}
	roots := 0
	for i := range parent {
		if ufFind(parent, i) == i {
			roots++
		}
	}
	if roots < 2 {
		return nil
	}
	groups := make(map[int][]*event.Snippet, roots)
	for i, sn := range sns {
		r := ufFind(parent, i)
		groups[r] = append(groups[r], sn)
	}
	out := make([][]*event.Snippet, 0, len(groups))
	// Deterministic order: by first snippet ID.
	order := make([]int, 0, len(groups))
	for r := range groups {
		order = append(order, r)
	}
	sort.Slice(order, func(i, j int) bool {
		return groups[order[i]][0].ID < groups[order[j]][0].ID
	})
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

func (id *Identifier) repairMerges() {
	storyCfg := similarity.StoryConfig{
		Weights:          id.cfg.Weights,
		GapScale:         id.cfg.TemporalScale,
		EvolutionBuckets: 0, // shape comparison is an alignment concern
		EntityWeight:     id.ew,
	}
	// Candidate pairs: stories with overlapping extents. Sort by start
	// time and sweep.
	live := id.Stories()
	sort.Slice(live, func(i, j int) bool { return live[i].Start.Before(live[j].Start) })
	absorbed := make(map[event.StoryID]bool)
	for i := 0; i < len(live); i++ {
		a := live[i]
		if absorbed[a.ID] {
			continue
		}
		for j := i + 1; j < len(live); j++ {
			b := live[j]
			if absorbed[b.ID] || absorbed[a.ID] {
				continue
			}
			if b.Start.After(a.End.Add(id.cfg.Window)) {
				break // sweep: no later story can overlap a
			}
			if _, ok := similarity.Stories(a, b, storyCfg, id.cfg.MergeThreshold); !ok {
				continue
			}
			// Merge the smaller into the larger.
			big, small := a, b
			if small.Len() > big.Len() {
				big, small = small, big
			}
			for _, sn := range append([]*event.Snippet(nil), small.Snippets...) {
				small.Remove(sn.ID)
				big.Add(sn)
				id.assign[sn.ID] = big.ID
			}
			absorbed[small.ID] = true
			id.dropStory(small.ID)
			id.reindexStory(big)
			id.touch(big.ID, small.ID)
			id.stats.Merges++
			if big == b { // a was absorbed; stop extending it
				break
			}
		}
	}
}
