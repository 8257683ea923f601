package event

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/vocab"
)

// SnippetRole classifies how a snippet contributes to an integrated story
// (paper §2.3): aligning snippets have temporally and semantically close
// counterparts in other sources and drive the alignment decision; enriching
// snippets add source-exclusive information such as special reports.
type SnippetRole uint8

const (
	// RoleUnknown means the role has not been computed.
	RoleUnknown SnippetRole = iota
	// RoleAligning marks snippets with cross-source counterparts.
	RoleAligning
	// RoleEnriching marks source-exclusive snippets.
	RoleEnriching
)

// String implements fmt.Stringer.
func (r SnippetRole) String() string {
	switch r {
	case RoleAligning:
		return "aligning"
	case RoleEnriching:
		return "enriching"
	default:
		return "unknown"
	}
}

// IntegratedStory is the result of aligning per-source stories across data
// sources (paper Figure 1c): a set of member stories, one or more per
// source, that describe the same real-world story. A story that could not
// be aligned with any other source still becomes a (singleton) integrated
// story, so the integrated result set always covers every per-source story.
type IntegratedStory struct {
	ID IntegratedID

	// Version is set by the aligner that builds the story, from one
	// counter that only grows: no two stories of one aligner share a
	// version, and a story the aligner keeps from pass to pass keeps it.
	// A version therefore names one member list, whose members are never
	// written again. Zero means the story was built by hand. The Refiner
	// and the query index skip a story whose version they saw last; since
	// versions are numbered per aligner, one index belongs to one engine.
	Version uint64

	// Members are the per-source stories merged into this integrated
	// story, sorted by (source, story ID) for determinism.
	Members []*Story

	// Roles records the computed role of each member snippet.
	Roles map[SnippetID]SnippetRole

	// rendered is the story's encoded summary rendering, filled by the
	// first reader that renders it (see Rendered).
	rendered atomic.Pointer[[]byte]
}

// NewIntegratedStory creates an integrated story over the given members.
// Its Roles map is sized for every member snippet.
func NewIntegratedStory(id IntegratedID, members []*Story) *IntegratedStory {
	ms := slices.Clone(members)
	slices.SortFunc(ms, compareMembers)
	is := &IntegratedStory{ID: id, Members: ms}
	is.Roles = make(map[SnippetID]SnippetRole, is.Len())
	return is
}

// compareMembers orders member stories by (source, story ID).
func compareMembers(a, b *Story) int {
	if c := cmp.Compare(a.Source, b.Source); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// Rendered returns the encoded rendering stored by SetRendered, or nil
// before the first. A reader may load it without a lock while another
// stores it.
func (is *IntegratedStory) Rendered() *[]byte { return is.rendered.Load() }

// SetRendered memoizes an encoded rendering of the story. It is only sound
// for a story with a Version: a version names one member list whose
// members are never written again, and a new version is a new object, so
// the rendering cannot go stale. A hand-built story (Version 0) carries no
// such promise and must not be memoized.
func (is *IntegratedStory) SetRendered(b *[]byte) { is.rendered.Store(b) }

// Sources returns the distinct sources contributing to the integrated
// story, sorted.
func (is *IntegratedStory) Sources() []SourceID {
	seen := make(map[SourceID]bool, len(is.Members))
	var out []SourceID
	for _, m := range is.Members {
		if !seen[m.Source] {
			seen[m.Source] = true
			out = append(out, m.Source)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Snippets returns all member snippets in chronological order, in one
// allocation.
func (is *IntegratedStory) Snippets() []*Snippet {
	out := make([]*Snippet, 0, is.Len())
	for _, m := range is.Members {
		out = append(out, m.Snippets...)
	}
	slices.SortFunc(out, CompareByTimestamp)
	return out
}

// Extent returns the overall [start, end] temporal extent.
func (is *IntegratedStory) Extent() (start, end time.Time) {
	for _, m := range is.Members {
		if m.Len() == 0 {
			continue
		}
		if start.IsZero() || m.Start.Before(start) {
			start = m.Start
		}
		if end.IsZero() || m.End.After(end) {
			end = m.End
		}
	}
	return start, end
}

// EntityFreq merges the member stories' entity frequencies, as shown in the
// demo's "Story Information" panel for aligned stories (Figure 4).
func (is *IntegratedStory) EntityFreq() map[Entity]int {
	out := make(map[Entity]int)
	for _, m := range is.Members {
		for _, ec := range m.EntityFreq {
			out[Entity(vocab.Entities.String(ec.ID))] += int(ec.N)
		}
	}
	return out
}

// Centroid merges the member stories' term centroids.
func (is *IntegratedStory) Centroid() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range is.Members {
		for _, tw := range m.Centroid {
			out[vocab.Terms.String(tw.ID)] += tw.W
		}
	}
	return out
}

// Len returns the total number of snippets across all members.
func (is *IntegratedStory) Len() int {
	n := 0
	for _, m := range is.Members {
		n += m.Len()
	}
	return n
}

// String returns a short human-readable rendering.
func (is *IntegratedStory) String() string {
	start, end := is.Extent()
	return fmt.Sprintf("integrated %d: %d member stories, %d snippets, %d sources, %s..%s",
		is.ID, len(is.Members), is.Len(), len(is.Sources()),
		start.Format("2006-01-02"), end.Format("2006-01-02"))
}
