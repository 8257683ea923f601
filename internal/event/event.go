// Package event defines the core data model of StoryPivot: information
// snippets, stories, and data sources.
//
// A snippet is the elemental unit of information (paper §2.1): a piece of
// text extracted from a document, annotated with the entities it mentions,
// a weighted description-term vector, the data source it came from, and the
// timestamp of the real-world event it describes. Stories are sets of
// snippets from one source that describe the same evolving real-world story;
// integrated stories combine per-source stories across sources.
package event

import (
	"cmp"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/vocab"
)

// SourceID identifies a data source (e.g. a newspaper, a blog).
type SourceID string

// SnippetID uniquely identifies a snippet across all sources.
type SnippetID uint64

// StoryID identifies a per-source story. StoryIDs are unique within the
// system, not just within a source.
type StoryID uint64

// IntegratedID identifies a cross-source integrated story produced by
// story alignment.
type IntegratedID uint64

// Entity is a canonical entity identifier, such as "UKR" or
// "malaysia_airlines". Entities are produced by the extraction pipeline and
// compared by exact equality.
type Entity string

// Term is a single stemmed description term with a weight. Weights are
// TF-IDF style scores assigned at extraction time.
type Term struct {
	Token  string
	Weight float64
}

// Snippet is an information snippet: the elemental unit processed by story
// identification and alignment.
type Snippet struct {
	ID        SnippetID
	Source    SourceID
	Timestamp time.Time
	// Entities mentioned by the snippet, deduplicated and sorted.
	Entities []Entity
	// Terms is the weighted description-term vector, sorted by token.
	Terms []Term
	// Text is the original excerpt the snippet was extracted from. It is
	// retained for display only; algorithms never read it.
	Text string
	// Document is the URL or identifier of the originating document.
	Document string

	// TermIDs is the interned description vector: Terms mapped through
	// the process-wide vocab table, sorted by symbol ID (not by token).
	// The similarity kernels read only this form; Terms is the API-edge
	// string form. Built by Normalize/EnsureInterned.
	TermIDs []vocab.IDWeight
	// EntityIDs mirrors Entities through the entity vocab table, sorted
	// by symbol ID.
	EntityIDs []uint32
	// TermNorm caches the Euclidean norm of TermIDs, so the snippet side
	// of every cosine is free at comparison time.
	TermNorm float64

	interned bool

	// rendered is the snippet's encoded display rendering, filled by the
	// first reader that renders it (see Rendered).
	rendered atomic.Pointer[[]byte]
}

// Validation errors returned by Snippet.Validate.
var (
	ErrNoSource    = errors.New("event: snippet has no source")
	ErrNoTimestamp = errors.New("event: snippet has zero timestamp")
	ErrEmpty       = errors.New("event: snippet has neither entities nor terms")
)

// Validate reports whether the snippet carries the minimum information the
// pipeline needs: a source, a timestamp, and at least one entity or term.
func (s *Snippet) Validate() error {
	if s.Source == "" {
		return ErrNoSource
	}
	if s.Timestamp.IsZero() {
		return ErrNoTimestamp
	}
	if len(s.Entities) == 0 && len(s.Terms) == 0 {
		return ErrEmpty
	}
	return nil
}

// Normalize sorts and deduplicates the entity list and sorts the term
// vector by token, merging duplicate tokens by summing weights. All pipeline
// stages assume normalized snippets.
func (s *Snippet) Normalize() {
	if len(s.Entities) > 1 {
		sort.Slice(s.Entities, func(i, j int) bool { return s.Entities[i] < s.Entities[j] })
		out := s.Entities[:1]
		for _, e := range s.Entities[1:] {
			if e != out[len(out)-1] {
				out = append(out, e)
			}
		}
		s.Entities = out
	}
	if len(s.Terms) > 1 {
		sort.Slice(s.Terms, func(i, j int) bool { return s.Terms[i].Token < s.Terms[j].Token })
		out := s.Terms[:1]
		for _, t := range s.Terms[1:] {
			if t.Token == out[len(out)-1].Token {
				out[len(out)-1].Weight += t.Weight
			} else {
				out = append(out, t)
			}
		}
		s.Terms = out
	}
	s.Intern()
}

// Intern (re)builds the snippet's interned ID vectors (TermIDs,
// EntityIDs, TermNorm) from the string forms. It tolerates unnormalized
// input: duplicate tokens are merged by summing weights, duplicate
// entities deduplicated. Intern never modifies Entities or Terms.
func (s *Snippet) Intern() {
	s.EntityIDs = s.EntityIDs[:0]
	for _, e := range s.Entities {
		s.EntityIDs = append(s.EntityIDs, vocab.Entities.ID(string(e)))
	}
	if len(s.EntityIDs) > 1 {
		sort.Slice(s.EntityIDs, func(i, j int) bool { return s.EntityIDs[i] < s.EntityIDs[j] })
		out := s.EntityIDs[:1]
		for _, id := range s.EntityIDs[1:] {
			if id != out[len(out)-1] {
				out = append(out, id)
			}
		}
		s.EntityIDs = out
	}
	s.TermIDs = s.TermIDs[:0]
	for _, t := range s.Terms {
		s.TermIDs = append(s.TermIDs, vocab.IDWeight{ID: vocab.Terms.ID(t.Token), W: t.Weight})
	}
	if len(s.TermIDs) > 1 {
		sort.Slice(s.TermIDs, func(i, j int) bool { return s.TermIDs[i].ID < s.TermIDs[j].ID })
		out := s.TermIDs[:1]
		for _, t := range s.TermIDs[1:] {
			if t.ID == out[len(out)-1].ID {
				out[len(out)-1].W += t.W
			} else {
				out = append(out, t)
			}
		}
		s.TermIDs = out
	}
	s.TermNorm = vocab.WeightNorm(s.TermIDs)
	s.interned = true
}

// EnsureInterned interns the snippet if it has not been yet. Every
// pipeline entry point (Normalize, codec decode, Story.Add,
// Identifier.Process) establishes the interned form, so downstream
// read paths see this as a pure flag check.
func (s *Snippet) EnsureInterned() {
	if !s.interned {
		s.Intern()
	}
}

// HasEntity reports whether the (normalized) snippet mentions e.
func (s *Snippet) HasEntity(e Entity) bool {
	i := sort.Search(len(s.Entities), func(i int) bool { return s.Entities[i] >= e })
	return i < len(s.Entities) && s.Entities[i] == e
}

// Clone returns a deep copy of the snippet. The copy starts without a
// rendering: callers clone to change fields (an ID, the display text),
// and a rendering of the original would describe the original.
func (s *Snippet) Clone() *Snippet {
	return &Snippet{
		ID:        s.ID,
		Source:    s.Source,
		Timestamp: s.Timestamp,
		Entities:  append([]Entity(nil), s.Entities...),
		Terms:     append([]Term(nil), s.Terms...),
		Text:      s.Text,
		Document:  s.Document,
		TermIDs:   append([]vocab.IDWeight(nil), s.TermIDs...),
		EntityIDs: append([]uint32(nil), s.EntityIDs...),
		TermNorm:  s.TermNorm,
		interned:  s.interned,
	}
}

// Rendered returns the encoded rendering stored by SetRendered, or nil
// before the first. A reader may load it without a lock while another
// stores it.
func (s *Snippet) Rendered() *[]byte { return s.rendered.Load() }

// SetRendered memoizes an encoded rendering of the snippet. It is only
// sound while every field the rendering shows stays as it is, which holds
// for snippets the engine holds: they are never written after ingest. The
// slot dies with the snippet, so there is nothing to invalidate.
func (s *Snippet) SetRendered(b *[]byte) { s.rendered.Store(b) }

// String returns a short human-readable rendering used in logs and the demo
// UI.
func (s *Snippet) String() string {
	ents := make([]string, len(s.Entities))
	for i, e := range s.Entities {
		ents[i] = string(e)
	}
	return fmt.Sprintf("snippet %d [%s @ %s] {%s}", s.ID, s.Source,
		s.Timestamp.Format("2006-01-02"), strings.Join(ents, ","))
}

// CompareByTimestamp orders snippets chronologically, breaking ties by ID
// so the order is deterministic; it is the order of a story's Snippets.
func CompareByTimestamp(a, b *Snippet) int {
	if c := a.Timestamp.Compare(b.Timestamp); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}
