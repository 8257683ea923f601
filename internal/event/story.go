package event

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/vocab"
)

// Story is a per-source story: a chronologically ordered set of snippets
// from a single data source that describe the same evolving real-world
// story (paper §2.2). A Story maintains incremental aggregates — entity
// frequencies and a description-term centroid — so that matching a new
// snippet against the story is O(|snippet|) rather than O(|story|).
//
// The aggregates are flat sorted sparse vectors over the process-wide
// vocab symbol tables (see internal/vocab): the similarity kernels
// merge-walk them with zero allocation per comparison. The string-keyed
// map forms survive only at API edges, via TopEntities/CentroidMap.
type Story struct {
	ID     StoryID
	Source SourceID

	// Snippets in chronological order (CompareByTimestamp order).
	Snippets []*Snippet

	// EntityFreq counts, for every entity (by vocab symbol, ascending),
	// in how many snippets of the story it appears. This powers the
	// "Story Information" panels of the demo UI (Figures 4–6) and
	// entity-based similarity.
	EntityFreq []vocab.IDCount

	// Centroid is the running sum of the snippets' term vectors, sorted
	// by vocab symbol. Cosine similarity against the centroid
	// approximates average linkage.
	Centroid []vocab.IDWeight

	// centroidNorm caches the Euclidean norm of Centroid; negative means
	// stale.
	centroidNorm float64

	// gen counts mutations (Add/Remove). Caches keyed on story content —
	// the identification window-aggregate cache in particular — key on
	// Gen(), which unlike Len() cannot alias a same-length remove+add
	// (refinement Move) with an unchanged story.
	gen uint64

	Start, End time.Time
}

// NewStory creates an empty story for the given source.
func NewStory(id StoryID, src SourceID) *Story {
	return &Story{
		ID:           id,
		Source:       src,
		centroidNorm: -1,
	}
}

// Len returns the number of snippets in the story.
func (st *Story) Len() int { return len(st.Snippets) }

// Gen returns the story's mutation counter: it advances on every Add and
// Remove, so equal Gen values imply unchanged content (within one
// process run).
func (st *Story) Gen() uint64 { return st.gen }

// BumpGen advances the mutation counter without a content change.
// Reactivating an archived story calls it so every downstream consumer
// that skips a story it holds at the same (story, gen) — the aligner's
// Holds, the refiner's per-home memos, the query index's member
// snapshots — observes the retire→reactivate transition as a delta even
// when the content round-tripped bit-identically.
func (st *Story) BumpGen() { st.gen++ }

// Add inserts a snippet into the story, keeping chronological order and
// updating the aggregates. Add panics if the snippet's source differs from
// the story's source: per-source stories never mix sources (that is the job
// of alignment).
func (st *Story) Add(s *Snippet) {
	if s.Source != st.Source {
		panic(fmt.Sprintf("event: snippet source %q added to story of source %q", s.Source, st.Source))
	}
	s.EnsureInterned()
	// Insert keeping chronological order; the common case is appending at
	// the end, so probe that first.
	n := len(st.Snippets)
	if n == 0 || !s.Timestamp.Before(st.Snippets[n-1].Timestamp) {
		st.Snippets = append(st.Snippets, s)
	} else {
		i := sort.Search(n, func(i int) bool {
			ti := st.Snippets[i].Timestamp
			return ti.After(s.Timestamp) || (ti.Equal(s.Timestamp) && st.Snippets[i].ID > s.ID)
		})
		st.Snippets = append(st.Snippets, nil)
		copy(st.Snippets[i+1:], st.Snippets[i:])
		st.Snippets[i] = s
	}
	st.EntityFreq = vocab.IncCounts(st.EntityFreq, s.EntityIDs)
	st.Centroid = vocab.AddWeights(st.Centroid, s.TermIDs)
	st.centroidNorm = -1
	st.gen++
	if st.Start.IsZero() || s.Timestamp.Before(st.Start) {
		st.Start = s.Timestamp
	}
	if st.End.IsZero() || s.Timestamp.After(st.End) {
		st.End = s.Timestamp
	}
}

// Remove deletes the snippet with the given ID from the story and updates
// the aggregates. It reports whether the snippet was present.
func (st *Story) Remove(id SnippetID) bool {
	idx := -1
	for i, s := range st.Snippets {
		if s.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	s := st.Snippets[idx]
	st.Snippets = append(st.Snippets[:idx], st.Snippets[idx+1:]...)
	st.EntityFreq = vocab.DecCounts(st.EntityFreq, s.EntityIDs)
	st.Centroid = vocab.SubWeights(st.Centroid, s.TermIDs)
	st.centroidNorm = -1
	st.gen++
	st.recomputeExtent()
	return true
}

func (st *Story) recomputeExtent() {
	st.Start, st.End = time.Time{}, time.Time{}
	for _, s := range st.Snippets {
		if st.Start.IsZero() || s.Timestamp.Before(st.Start) {
			st.Start = s.Timestamp
		}
		if st.End.IsZero() || s.Timestamp.After(st.End) {
			st.End = s.Timestamp
		}
	}
}

// CentroidNorm returns the Euclidean norm of the centroid vector, cached
// across calls until the story changes.
func (st *Story) CentroidNorm() float64 {
	if st.centroidNorm >= 0 {
		return st.centroidNorm
	}
	var sum float64
	for _, e := range st.Centroid {
		sum += e.W * e.W
	}
	st.centroidNorm = math.Sqrt(sum)
	return st.centroidNorm
}

// CentroidMap returns the term centroid keyed by token string — the
// API-edge form. Allocates; do not call on a similarity hot path.
func (st *Story) CentroidMap() map[string]float64 {
	out := make(map[string]float64, len(st.Centroid))
	for _, tw := range st.Centroid {
		out[vocab.Terms.String(tw.ID)] = tw.W
	}
	return out
}

// WindowSnippets returns the story's snippets whose timestamps fall in
// [from, to] (inclusive). The story's chronological order makes this a
// binary search plus a copy of the matching range.
func (st *Story) WindowSnippets(from, to time.Time) []*Snippet {
	lo := sort.Search(len(st.Snippets), func(i int) bool {
		return !st.Snippets[i].Timestamp.Before(from)
	})
	hi := sort.Search(len(st.Snippets), func(i int) bool {
		return st.Snippets[i].Timestamp.After(to)
	})
	if lo >= hi {
		return nil
	}
	return st.Snippets[lo:hi]
}

// AppendWindowedCentroidIDs computes the flat term centroid and entity
// frequencies over only the snippets inside [from, to], accumulating into
// the given buffers (emptied by the caller, capacity reused). Temporal
// story identification uses this to compare a new snippet against the
// story "as it currently is" rather than its entire history (paper §2.2,
// Figure 2b); its aggregate cache rebuilds windows on every bucket
// advance, so reusing the previous window's backing arrays keeps the
// steady-state rebuild allocation-free.
func (st *Story) AppendWindowedCentroidIDs(from, to time.Time, cen []vocab.IDWeight, ents []vocab.IDCount) ([]vocab.IDWeight, []vocab.IDCount) {
	for _, s := range st.WindowSnippets(from, to) {
		cen = vocab.AddWeights(cen, s.TermIDs)
		ents = vocab.IncCounts(ents, s.EntityIDs)
	}
	return cen, ents
}

// Snapshot returns a copy of the story that is safe to read while the
// original keeps changing: the snippet list and aggregate vectors are
// copied, the snippet pointers are shared (snippets are immutable once
// ingested). Alignment results are built from snapshots so that readers
// of a published result never race with ongoing ingestion.
func (st *Story) Snapshot() *Story {
	return &Story{
		ID:           st.ID,
		Source:       st.Source,
		Snippets:     append([]*Snippet(nil), st.Snippets...),
		EntityFreq:   append([]vocab.IDCount(nil), st.EntityFreq...),
		Centroid:     append([]vocab.IDWeight(nil), st.Centroid...),
		centroidNorm: st.centroidNorm,
		gen:          st.gen,
		Start:        st.Start,
		End:          st.End,
	}
}

// RestoreStory rebuilds a story from archived state: the snippet list
// (already chronological), the aggregate vectors, extent, and mutation
// counter exactly as they were captured by Snapshot at archive time. The
// aggregates are adopted verbatim rather than recomputed so the restored
// story is bit-identical to the archived one — float summation order
// would otherwise differ from the incremental Add sequence that built the
// original. The retirement subsystem uses this to reactivate a cold story
// with its original identity and a caller-advanced Gen.
func RestoreStory(id StoryID, src SourceID, snippets []*Snippet,
	ents []vocab.IDCount, centroid []vocab.IDWeight,
	start, end time.Time, gen uint64) *Story {
	return &Story{
		ID:           id,
		Source:       src,
		Snippets:     snippets,
		EntityFreq:   ents,
		Centroid:     centroid,
		centroidNorm: -1,
		gen:          gen,
		Start:        start,
		End:          end,
	}
}

// TopEntities returns up to k entities sorted by descending frequency
// (ties broken alphabetically), as displayed in the demo's story panels.
func (st *Story) TopEntities(k int) []EntityCount {
	out := make([]EntityCount, 0, len(st.EntityFreq))
	for _, ec := range st.EntityFreq {
		out = append(out, EntityCount{Entity: Entity(vocab.Entities.String(ec.ID)), Count: int(ec.N)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Entity < out[j].Entity
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// TopTerms returns up to k description terms sorted by descending centroid
// weight (ties broken alphabetically).
func (st *Story) TopTerms(k int) []TermWeight {
	out := make([]TermWeight, 0, len(st.Centroid))
	for _, tw := range st.Centroid {
		out = append(out, TermWeight{Token: vocab.Terms.String(tw.ID), Weight: tw.W})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Token < out[j].Token
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// EntityCount pairs an entity with its snippet frequency within a story.
type EntityCount struct {
	Entity Entity
	Count  int
}

// TermWeight pairs a description term with its aggregate weight within a
// story.
type TermWeight struct {
	Token  string
	Weight float64
}

// Overlaps reports whether the temporal extents of two stories overlap when
// each is widened by slack on both sides. Story alignment uses this as its
// first, cheapest filter (paper §2.3: "it is highly unlikely that two
// stories are similar if c1 ends at ti and c2 starts at tj with ti ≪ tj").
func (st *Story) Overlaps(other *Story, slack time.Duration) bool {
	if st.Len() == 0 || other.Len() == 0 {
		return false
	}
	return !st.Start.Add(-slack).After(other.End) && !other.Start.Add(-slack).After(st.End)
}

// String returns a short human-readable rendering.
func (st *Story) String() string {
	return fmt.Sprintf("story %d [%s] %d snippets %s..%s", st.ID, st.Source,
		st.Len(), st.Start.Format("2006-01-02"), st.End.Format("2006-01-02"))
}
