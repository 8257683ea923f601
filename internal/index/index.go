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
// member tombstones its old postings in O(1) — the entry's generation
// moves past them — and appends new ones. Stale postings are skipped by
// readers and physically removed by the sweep a publish runs once they
// exceed a fraction of the live set.
//
// Every query also returns a Stamp: the index, the publish epoch it read
// and the symbols it depends on. The walk that applies a publish stamps
// the entity and term symbols of every integrated story it changed, so
// Current tells, without a lock, whether a cached answer still holds.
//
// Reads run under an RWMutex read lock and never block each other;
// Publish and sweeps take the write lock. Queries therefore never
// contend with ingest shards — ingestion only touches the index when an
// alignment pass publishes.
package index

import (
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
	// SweepMinStale is the minimum number of tombstoned postings before
	// a sweep is considered (default 64).
	SweepMinStale int
	// SweepRatio triggers a sweep when stale postings exceed this
	// fraction of live postings (default 0.25).
	SweepRatio float64
}

func (o Options) withDefaults() Options {
	if o.TimelineBucket <= 0 {
		o.TimelineBucket = defaultTimelineBucket
	}
	if o.SweepMinStale <= 0 {
		o.SweepMinStale = 64
	}
	if o.SweepRatio <= 0 {
		o.SweepRatio = 0.25
	}
	return o
}

// storyEntry is the per-story index record. The generation is the
// liveness oracle for every posting of the story; slot locates the
// integrated story the member currently belongs to.
type storyEntry struct {
	gen   uint64
	slot  int32
	npost int32 // postings written for this (story, gen): entity + term + timeline
}

// held is one integrated story of the last publish and the slot it holds.
type held struct {
	is   *event.IntegratedStory
	slot int32
}

// Index is the incrementally maintained read index. It is safe for
// concurrent use: any number of readers proceed in parallel; Publish
// and Sweep serialise behind the write lock. One Index belongs to one
// engine: versions are numbered per aligner, so another engine's story
// can carry a version this index holds for other members.
type Index struct {
	opts        Options
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

	// livePosts/stalePosts track posting population for sweep pacing.
	livePosts  int
	stalePosts int

	// dirtySegs collects timeline segments appended to during the
	// in-progress publish; finishTimelines drains it.
	dirtySegs []*tlSegment

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
	opts = opts.withDefaults()
	return &Index{
		id:          indexIDs.Add(1),
		opts:        opts,
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
// (same Story.Gen) or rebuilds its postings from the flat vocab vectors
// (EntityFreq, Centroid, snippet EntityIDs). Gone and renewed stories
// then free their slots and tombstone the members no new version claimed:
// those still pointing at the old slot. The same walk stamps the symbols
// of every new, renewed and gone story, which is all a cached query page
// needs to know about the publish (see Current).
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
			if e != nil && e.gen == m.Gen() {
				e.slot = slot
				skipped++
				continue
			}
			if e == nil {
				e = &storyEntry{}
				x.stories[m.ID] = e
			} else {
				// Changed: the generation bump below invalidates every
				// posting written for the old generation.
				x.stalePosts += int(e.npost)
				x.livePosts -= int(e.npost)
			}
			e.gen, e.slot, e.npost = m.Gen(), slot, x.addPostings(m)
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
				x.stalePosts += int(e.npost)
				x.livePosts -= int(e.npost)
				delete(x.stories, m.ID)
				removed++
			}
		}
		x.slots[old.slot] = nil
		x.free = append(x.free, old.slot)
	}
	clear(x.last) // the spare buffer must not pin old versions
	x.last, x.next = next, x.last[:0]
	x.finishTimelines()
	if x.shouldSweepLocked() {
		x.sweepLocked()
	}

	metStoriesUpdated.Add(updated)
	metStoriesSkipped.Add(skipped)
	metStoriesRemoved.Add(removed)
	metStoriesGauge.Set(int64(len(x.stories)))
	metLiveGauge.Set(int64(x.livePosts))
	metStaleGauge.Set(int64(x.stalePosts))
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

// addPostings writes the story's postings under the given entry
// generation and returns how many were written. Reads only the flat
// interned vectors — never the map-form aggregates.
func (x *Index) addPostings(st *event.Story) int32 {
	gen := st.Gen()
	n := 0
	for _, ec := range st.EntityFreq {
		x.ents[ec.ID] = append(x.ents[ec.ID], post{story: st.ID, gen: gen, w: float64(ec.N)})
		n++
	}
	for _, tw := range st.Centroid {
		x.terms[tw.ID] = append(x.terms[tw.ID], post{story: st.ID, gen: gen, w: tw.W})
		n++
	}
	n += x.addTimelinePosts(st, gen)
	x.livePosts += n
	return int32(n)
}

// live reports whether a posting written for (story, gen) is still
// current. Callers hold at least the read lock.
func (x *Index) live(story event.StoryID, gen uint64) (*storyEntry, bool) {
	e := x.stories[story]
	if e == nil || e.gen != gen {
		return nil, false
	}
	return e, true
}

// Epoch returns the number of publishes applied so far (diagnostics and
// tests).
func (x *Index) Epoch() uint64 { return x.epoch.Load() }

// Stats is a point-in-time size snapshot of the index.
type Stats struct {
	Stories       int
	LivePostings  int
	StalePostings int
	Integrated    int
}

// Stats returns current population counters.
func (x *Index) Stats() Stats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return Stats{
		Stories:       len(x.stories),
		LivePostings:  x.livePosts,
		StalePostings: x.stalePosts,
		Integrated:    len(x.last),
	}
}

func (x *Index) shouldSweepLocked() bool {
	return x.stalePosts >= x.opts.SweepMinStale &&
		float64(x.stalePosts) >= x.opts.SweepRatio*float64(x.livePosts)
}

// Sweep forces a full tombstone sweep regardless of thresholds.
func (x *Index) Sweep() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.sweepLocked()
}

// sweepLocked compacts every posting list and timeline segment in
// place, dropping postings whose (story, gen) is no longer live.
func (x *Index) sweepLocked() {
	span := metSweepLat.Start()
	defer span.End()
	metSweeps.Inc()
	swept := x.sweepPosts(x.ents) + x.sweepPosts(x.terms)
	for eid, tl := range x.timelines {
		keys := tl.keys[:0]
		for _, key := range tl.keys {
			seg := tl.buckets[key]
			w := 0
			for _, p := range seg.posts {
				if _, ok := x.live(p.story, p.gen); ok {
					seg.posts[w] = p
					w++
				}
			}
			swept += uint64(len(seg.posts) - w)
			if w == 0 {
				delete(tl.buckets, key)
			} else {
				seg.posts = seg.posts[:w]
				keys = append(keys, key)
			}
		}
		tl.keys = keys
		if len(tl.keys) == 0 {
			delete(x.timelines, eid)
		}
	}
	x.stalePosts = 0
	metSweptPostings.Add(swept)
	metStaleGauge.Set(0)
	metLiveGauge.Set(int64(x.livePosts))
}

// sweepPosts compacts every list of an entity or term posting map and
// returns how many postings it dropped.
func (x *Index) sweepPosts(lists map[uint32][]post) (swept uint64) {
	for id, list := range lists {
		w := 0
		for _, p := range list {
			if _, ok := x.live(p.story, p.gen); ok {
				list[w] = p
				w++
			}
		}
		swept += uint64(len(list) - w)
		if w == 0 {
			delete(lists, id)
		} else {
			lists[id] = list[:w]
		}
	}
	return swept
}
