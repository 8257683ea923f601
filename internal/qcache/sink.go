// The cache invalidator: a stream.ResultSink that turns every
// alignment publish into the minimal set of group bumps.
//
// The unit of staleness is the *integrated* story: a cached /api/search
// page embeds whole integrated stories, so any change to any member, or
// to the membership itself, must invalidate every symbol the integrated
// story touches — including symbols of members whose own Gen did not
// move (a story "stolen" into another component changes both
// components' rendered pages without either unchanged member mutating).
// The aligner's IntegratedStory.Version says exactly that: a story it
// kept has the version it had, and any other story has a new one. So the
// sink remembers the last publish's integrated stories, bumps the groups
// of every new version and, for every ID that is gone or has a new
// version, the groups of the old story, which nothing writes once it is
// published. A publish of the same versions bumps nothing.
package qcache

import (
	"sync"

	"repro/internal/align"
	"repro/internal/event"
	"repro/internal/vocab"
)

// Sink subscribes a Cache to an engine's alignment publishes (attach
// with stream.Engine.AddResultSink, AFTER the index's primary slot so
// bumps never precede the index state they describe). One Sink belongs
// to one engine: versions are numbered per aligner, so another engine's
// story can carry a version this sink remembers for other members. When
// the pipeline is rebuilt, create a fresh Sink for the new engine and
// BumpAll the cache: the fresh sink never saw the old engine's stories,
// so it cannot bump the ones that are gone.
type Sink struct {
	c *Cache

	// mu serialises Publish (the engine already does, under its own
	// mutex, but the sink must also stay safe if an orphaned engine
	// publishes concurrently with its replacement's sink).
	mu sync.Mutex
	// last is the last publish's integrated stories by ascending ID; next
	// is the buffer changes builds the new list in.
	last, next []*event.IntegratedStory
}

// NewSink creates an invalidator feeding c.
func NewSink(c *Cache) *Sink {
	return &Sink{c: c}
}

// Publish implements stream.ResultSink.
func (s *Sink) Publish(res *align.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c.Bump(s.changes(res))
}

// changes returns the groups res invalidates against the last publish
// and makes res the last publish. Results list integrated stories by
// ascending ID, so one merge walk pairs old and new.
func (s *Sink) changes(res *align.Result) Bits {
	var acc Bits
	next, i := s.next[:0], 0
	for _, is := range res.Integrated {
		for ; i < len(s.last) && s.last[i].ID < is.ID; i++ {
			acc = acc.Or(storyBits(s.last[i])) // gone
		}
		if i < len(s.last) && s.last[i].ID == is.ID {
			old := s.last[i]
			i++
			if old.Version == is.Version {
				next = append(next, is)
				continue
			}
			acc = acc.Or(storyBits(old)) // renewed
		}
		acc = acc.Or(storyBits(is))
		next = append(next, is)
	}
	for ; i < len(s.last); i++ {
		acc = acc.Or(storyBits(s.last[i]))
	}
	clear(s.last) // the spare buffer must not pin old versions
	s.last, s.next = next, s.last[:0]
	return acc
}

// storyBits returns the symbol groups of every member of an integrated
// story.
func storyBits(is *event.IntegratedStory) Bits {
	var b Bits
	for _, m := range is.Members {
		for _, ec := range m.EntityFreq {
			b.Set(groupOf(kindEntity, vocab.Entities.String(ec.ID)))
		}
		for _, tw := range m.Centroid {
			b.Set(groupOf(kindTerm, vocab.Terms.String(tw.ID)))
		}
	}
	return b
}
