package index

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"repro/internal/event"
)

// Timeline segments: per-entity chronological snippet runs partitioned
// by fixed time windows. The per-entity Timeline query walks only the
// buckets of that entity, in key order, instead of every snippet of
// every integrated story. Buckets are keyed by timestamp/width, so the
// concatenation of sorted buckets in key order is globally sorted by
// (timestamp, snippet ID) — equal timestamps always share a bucket.

// tlPost is one timeline posting: a snippet reference plus the
// (story, generation) pair that validates it against the entry table.
type tlPost struct {
	sn    *event.Snippet
	story event.StoryID
	gen   uint64
}

// tlSegment is one (entity, time-bucket) run.
type tlSegment struct {
	posts []tlPost
	// dirty marks segments appended to during the current publish;
	// finishTimelines re-sorts them before the write lock is released,
	// so readers always see sorted runs.
	dirty bool
}

// timeline is one entity's segment set. keys mirrors the bucket map in
// ascending order so queries walk chronologically without sorting.
type timeline struct {
	buckets map[int64]*tlSegment
	keys    []int64
}

func (tl *timeline) segment(key int64) *tlSegment {
	if seg, ok := tl.buckets[key]; ok {
		return seg
	}
	seg := &tlSegment{}
	tl.buckets[key] = seg
	i := sort.Search(len(tl.keys), func(i int) bool { return tl.keys[i] >= key })
	tl.keys = append(tl.keys, 0)
	copy(tl.keys[i+1:], tl.keys[i:])
	tl.keys[i] = key
	return seg
}

// addTimelinePosts writes one posting per (snippet, entity) of the story
// into the entity timelines and returns how many were written.
func (x *Index) addTimelinePosts(st *event.Story, gen uint64) int {
	n := 0
	for _, sn := range st.Snippets {
		key := sn.Timestamp.UnixNano() / int64(x.bucketWidth)
		for _, eid := range sn.EntityIDs {
			tl := x.timelines[eid]
			if tl == nil {
				tl = &timeline{buckets: make(map[int64]*tlSegment)}
				x.timelines[eid] = tl
			}
			seg := tl.segment(key)
			seg.posts = append(seg.posts, tlPost{sn: sn, story: st.ID, gen: gen})
			if !seg.dirty {
				seg.dirty = true
				x.dirtySegs = append(x.dirtySegs, seg)
			}
			n++
		}
	}
	return n
}

// finishTimelines restores sorted order in every segment touched by the
// current publish. Called under the write lock, once per publish; the
// comparator captures nothing, so a re-sort allocates nothing.
func (x *Index) finishTimelines() {
	for _, seg := range x.dirtySegs {
		slices.SortFunc(seg.posts, compareTLPosts)
		seg.dirty = false
	}
	x.dirtySegs = x.dirtySegs[:0]
}

// compareTLPosts orders postings by (timestamp, snippet ID, story, gen),
// a strict total order over a segment's postings.
func compareTLPosts(a, b tlPost) int {
	if c := a.sn.Timestamp.Compare(b.sn.Timestamp); c != 0 {
		return c
	}
	if c := cmp.Compare(a.sn.ID, b.sn.ID); c != 0 {
		return c
	}
	// Same snippet posted for an old and a new story generation: order is
	// immaterial (at most one is live) but must be deterministic.
	if c := cmp.Compare(a.story, b.story); c != 0 {
		return c
	}
	return cmp.Compare(a.gen, b.gen)
}

// defaultTimelineBucket partitions entity timelines into 3-day runs: a
// week-scale story contributes to a handful of segments, while a
// half-year corpus stays ~60 buckets deep for even the most persistent
// entity.
const defaultTimelineBucket = 72 * time.Hour
