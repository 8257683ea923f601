// Package index is StoryPivot's incremental query-serving index: an
// inverted view over the current alignment result that answers the
// demo's exploration queries — free-text search, stories-by-entity, and
// per-entity timelines (paper §4.2) — without scanning every integrated
// story and without materialising map-form centroids per query.
//
// Three structures are maintained:
//
//   - entity postings: entity symbol → {story, mentionCount} list,
//     backing StoriesByEntity ranking;
//   - term postings: term symbol → {story, centroidWeight} list,
//     backing ranked free-text Search;
//   - timeline segments: entity symbol → time-bucketed chronological
//     snippet runs, backing Timeline without walking unrelated stories.
//
// The index is updated by delta, never rebuilt: Publish walks each fresh
// alignment result in step with the last one by (IntegratedID,
// IntegratedStory.Version) and touches only the integrated stories the
// aligner renewed or dropped. Within a new version, a member whose
// Story.Gen is unchanged only moves to the new version's slot; a changed
// member has the postings of the snapshot it was indexed from deleted
// and its new ones appended, and a member no new version claims has its
// postings deleted. Every posting in the lists is therefore live: readers
// check nothing, and nothing is left for a later pass to remove. A list,
// timeline segment or timeline left empty is deleted too, so the index
// holds only what its published members post.
//
// Every query also returns a Stamp: the index, the publish epoch it read
// and the symbols it depends on. The walk that applies a publish stamps
// the entity and term symbols of every integrated story it changed, so
// Current tells, without a lock, whether a cached answer still holds.
//
// Reads run under an RWMutex read lock and never block each other;
// Publish takes the write lock. Queries therefore never contend with
// ingest shards — ingestion only touches the index when an alignment pass
// publishes.
package index

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/event"
)

// Options configures an Index. The zero value selects defaults.
type Options struct {
	// TimelineBucket is the width of the timeline time partitions
	// (default 72h).
	TimelineBucket time.Duration
}

// storyEntry is the per-story index record: st is the member snapshot
// whose postings are in the lists, which names every list a delete must
// filter; slot locates the integrated story the member currently
// belongs to.
type storyEntry struct {
	st   *event.Story
	slot int32
}

// held is one integrated story of the last publish and the slot it holds.
type held struct {
	is   *event.IntegratedStory
	slot int32
}

// Index is the incrementally maintained read index. It is safe for
// concurrent use: any number of readers proceed in parallel; Publish
// serialises behind the write lock. One Index belongs to one engine:
// versions are numbered per aligner, so another engine's story can carry
// a version this index holds for other members.
type Index struct {
	bucketWidth time.Duration

	mu        sync.RWMutex
	stories   map[event.StoryID]*storyEntry
	ents      map[uint32][]post
	terms     map[uint32][]post
	timelines map[uint32]*timeline

	// last is the last publish's integrated stories by ascending ID, each
	// in its slot of slots (nil: free, listed in free) for as long as its
	// version is published; next is the buffer Publish builds the new list in.
	last, next []held
	slots      []*event.IntegratedStory
	free       []int32

	// livePosts counts the postings across entity, term and timeline lists.
	livePosts int

	// dirtySegs collects timeline segments appended to during the
	// in-progress publish; finishTimelines drains it. deletes counts the
	// snapshots whose timeline postings were deleted (see tlSegment).
	dirtySegs []*tlSegment
	deletes   uint64

	// emptyEnts, emptyTerms and emptySegs record the lists and timeline
	// segments a delete of the in-progress publish left empty; pruneEmpty
	// drains them.
	emptyEnts, emptyTerms []uint32
	emptySegs             []segRef

	// id names the index in the Stamps its queries return; epoch counts
	// publishes; entStamps and termStamps hold, per vocab ID, the epoch of
	// the last publish that changed an integrated story carrying the
	// symbol (see stamp.go).
	id                    uint64
	epoch                 atomic.Uint64
	entStamps, termStamps stampTable
}

// New creates an empty index.
func New(opts Options) *Index {
	if opts.TimelineBucket <= 0 {
		opts.TimelineBucket = defaultTimelineBucket
	}
	return &Index{
		id:          indexIDs.Add(1),
		bucketWidth: opts.TimelineBucket,
		stories:     make(map[event.StoryID]*storyEntry),
		ents:        make(map[uint32][]post),
		terms:       make(map[uint32][]post),
		timelines:   make(map[uint32]*timeline),
	}
}

// Publish applies one alignment result to the index as a delta
// (implements stream.ResultSink). One merge walk by ascending ID pairs
// the result's integrated stories with the last publish's. A kept version
// costs nothing. A new version takes a slot, and each member moves there
// (same Story.Gen) or has the postings of its indexed snapshot deleted
// and new ones written from the flat vocab vectors (EntityFreq,
// Centroid, snippet EntityIDs). Gone and renewed stories then free their
// slots and delete the postings and entries of the members no new
// version claimed: those still pointing at the old slot. Last, every
// list and timeline segment a delete emptied and no add refilled is
// deleted. The same walk stamps the symbols of every new, renewed and
// gone story, which is all a cached query page needs to know about the
// publish (see Current).
func (x *Index) Publish(res *align.Result) {
	if res == nil {
		return
	}
	span := metPublishLat.Start()
	defer span.End()
	x.mu.Lock()
	defer x.mu.Unlock()
	epoch := x.epoch.Add(1)
	metPublishes.Inc()

	var updated, skipped, removed uint64
	next, i := x.next[:0], 0
	for _, is := range res.Integrated {
		for ; i < len(x.last) && x.last[i].is.ID < is.ID; i++ {
			x.slots[x.last[i].slot] = nil // gone
		}
		if i < len(x.last) && x.last[i].is.ID == is.ID {
			old := x.last[i]
			i++
			if old.is.Version == is.Version {
				next = append(next, old)
				skipped += uint64(len(is.Members))
				continue
			}
			x.slots[old.slot] = nil // renewed
		}
		slot := x.takeSlot(is)
		next = append(next, held{is: is, slot: slot})
		x.stamp(is, epoch)
		for _, m := range is.Members {
			e := x.stories[m.ID]
			if e != nil && e.st.Gen() == m.Gen() {
				e.slot = slot
				skipped++
				continue
			}
			if e == nil {
				e = &storyEntry{}
				x.stories[m.ID] = e
			} else {
				x.deletePostings(e.st)
			}
			e.st, e.slot = m, slot
			x.addPostings(m)
			updated++
		}
	}
	for j, old := range x.last {
		if j < i && x.slots[old.slot] != nil {
			continue // kept
		}
		x.stamp(old.is, epoch)
		for _, m := range old.is.Members {
			if e := x.stories[m.ID]; e != nil && e.slot == old.slot {
				x.deletePostings(e.st)
				delete(x.stories, m.ID)
				removed++
			}
		}
		x.slots[old.slot] = nil
		x.free = append(x.free, old.slot)
	}
	clear(x.last) // the spare buffer must not pin old versions
	x.last, x.next = next, x.last[:0]
	x.pruneEmpty()
	x.finishTimelines()

	metStoriesUpdated.Add(updated)
	metStoriesSkipped.Add(skipped)
	metStoriesRemoved.Add(removed)
	metStoriesGauge.Set(int64(len(x.stories)))
	metLiveGauge.Set(int64(x.livePosts))
}

// stamp records that the publish in progress, at epoch, changed is: every
// entity and centroid term of every member is stamped with the epoch.
// Publish stamps each new version and each version that is gone or
// renewed, so a query page that named either one sees its symbols move.
func (x *Index) stamp(is *event.IntegratedStory, epoch uint64) {
	for _, m := range is.Members {
		for _, ec := range m.EntityFreq {
			x.entStamps.set(ec.ID, epoch)
		}
		for _, tw := range m.Centroid {
			x.termStamps.set(tw.ID, epoch)
		}
	}
}

// takeSlot puts is in a free slot, or a new one, and returns it. Slots
// the publish in progress frees are not free until after its walk.
func (x *Index) takeSlot(is *event.IntegratedStory) int32 {
	if n := len(x.free); n > 0 {
		s := x.free[n-1]
		x.free = x.free[:n-1]
		x.slots[s] = is
		return s
	}
	x.slots = append(x.slots, is)
	return int32(len(x.slots) - 1)
}

// addPostings writes the story's postings. Reads only the flat interned
// vectors — never the map-form aggregates.
func (x *Index) addPostings(st *event.Story) {
	for _, ec := range st.EntityFreq {
		x.ents[ec.ID] = append(x.ents[ec.ID], post{story: st.ID, w: float64(ec.N)})
	}
	for _, tw := range st.Centroid {
		x.terms[tw.ID] = append(x.terms[tw.ID], post{story: st.ID, w: tw.W})
	}
	x.livePosts += len(st.EntityFreq) + len(st.Centroid) + x.addTimelinePosts(st)
}

// deletePostings removes every posting addPostings wrote for st, the
// snapshot a story was indexed from, visiting only the lists st names.
// Lists it empties are recorded and stay until pruneEmpty: a replacing
// version refills most of them in place.
func (x *Index) deletePostings(st *event.Story) {
	n := 0
	for _, ec := range st.EntityFreq {
		n += dropStory(x.ents, ec.ID, st.ID, &x.emptyEnts)
	}
	for _, tw := range st.Centroid {
		n += dropStory(x.terms, tw.ID, st.ID, &x.emptyTerms)
	}
	x.livePosts -= n + x.deleteTimelinePosts(st)
}

// dropStory deletes story's posting, the only one it has, from the list
// of sym, keeping the others in order so score sums are added up as
// before, records sym in emptied if that left the list empty, and
// returns how many it deleted.
func dropStory(lists map[uint32][]post, sym uint32, story event.StoryID, emptied *[]uint32) int {
	list := lists[sym]
	for i, p := range list {
		if p.story == story {
			list = slices.Delete(list, i, i+1)
			lists[sym] = list
			if len(list) == 0 {
				*emptied = append(*emptied, sym)
			}
			return 1
		}
	}
	return 0
}

// pruneEmpty deletes the lists and timeline segments the publish's
// deletes emptied that are still empty after its adds, so the index keeps
// only lists its published members post to. Publish calls it once, after
// its walk.
func (x *Index) pruneEmpty() {
	for _, sym := range x.emptyEnts {
		if len(x.ents[sym]) == 0 {
			delete(x.ents, sym)
		}
	}
	for _, sym := range x.emptyTerms {
		if len(x.terms[sym]) == 0 {
			delete(x.terms, sym)
		}
	}
	x.emptyEnts, x.emptyTerms = x.emptyEnts[:0], x.emptyTerms[:0]
	x.pruneTimelines()
}

// Epoch returns the number of publishes applied so far (diagnostics and
// tests).
func (x *Index) Epoch() uint64 { return x.epoch.Load() }

// Stats is a point-in-time size snapshot of the index.
type Stats struct {
	Stories      int
	LivePostings int
	Integrated   int
}

// Stats returns current population counters.
func (x *Index) Stats() Stats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return Stats{
		Stories:      len(x.stories),
		LivePostings: x.livePosts,
		Integrated:   len(x.last),
	}
}
