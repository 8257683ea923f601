package index

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/event"
)

// Timeline segments: per-entity chronological snippet runs partitioned
// by fixed time windows. The per-entity Timeline query walks only the
// buckets of that entity, in key order, instead of every snippet of
// every integrated story. Buckets are keyed by timestamp/width, so the
// concatenation of sorted buckets in key order is globally sorted by
// (timestamp, snippet ID) — equal timestamps always share a bucket.

// tlPost is one timeline posting: a snippet reference plus the story it
// was written for, the key Publish deletes it by.
type tlPost struct {
	sn    *event.Snippet
	story event.StoryID
}

// tlSegment is one (entity, time-bucket) run.
type tlSegment struct {
	posts []tlPost
	// dirty marks segments appended to during the current publish;
	// finishTimelines re-sorts them before the write lock is released,
	// so readers always see sorted runs.
	dirty   bool
	deleted uint64 // Index.deletes at the last delete that compacted it
}

// segRef names the timeline segment of entity eid at bucket key.
type segRef struct {
	eid uint32
	key int64
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
	i, _ := slices.BinarySearch(tl.keys, key)
	tl.keys = slices.Insert(tl.keys, i, key)
	return seg
}

// bucketKey is the time bucket of sn's timeline postings.
func (x *Index) bucketKey(sn *event.Snippet) int64 {
	return sn.Timestamp.UnixNano() / int64(x.bucketWidth)
}

// addTimelinePosts writes one posting per (snippet, entity) of the story
// into the entity timelines and returns how many were written.
func (x *Index) addTimelinePosts(st *event.Story) int {
	n := 0
	for _, sn := range st.Snippets {
		key := x.bucketKey(sn)
		for _, eid := range sn.EntityIDs {
			tl := x.timelines[eid]
			if tl == nil {
				tl = &timeline{buckets: make(map[int64]*tlSegment)}
				x.timelines[eid] = tl
			}
			seg := tl.segment(key)
			seg.posts = append(seg.posts, tlPost{sn: sn, story: st.ID})
			if !seg.dirty {
				seg.dirty = true
				x.dirtySegs = append(x.dirtySegs, seg)
			}
			n++
		}
	}
	return n
}

// deleteTimelinePosts deletes the postings addTimelinePosts wrote for st
// and returns how many it deleted. Each segment st posted to is compacted
// once, in one pass that drops all of st's postings there and keeps the
// order of the others, so a sorted segment stays sorted; a segment the
// pass empties is recorded for pruneTimelines.
func (x *Index) deleteTimelinePosts(st *event.Story) int {
	x.deletes++
	n := 0
	for _, sn := range st.Snippets {
		key := x.bucketKey(sn)
		for _, eid := range sn.EntityIDs {
			seg := x.timelines[eid].buckets[key]
			if seg.deleted == x.deletes {
				continue // compacted for st already
			}
			seg.deleted = x.deletes
			before := len(seg.posts)
			seg.posts = slices.DeleteFunc(seg.posts, func(p tlPost) bool { return p.story == st.ID })
			n += before - len(seg.posts)
			if before > 0 && len(seg.posts) == 0 {
				x.emptySegs = append(x.emptySegs, segRef{eid, key})
			}
		}
	}
	return n
}

// pruneTimelines deletes every recorded segment that still holds no
// posting, with its key, and an entity's timeline once it has no segment.
// A segment emptied twice in one publish is recorded twice and deleted
// once.
func (x *Index) pruneTimelines() {
	for _, r := range x.emptySegs {
		tl := x.timelines[r.eid]
		if tl == nil {
			continue
		}
		if seg := tl.buckets[r.key]; seg == nil || len(seg.posts) > 0 {
			continue
		}
		delete(tl.buckets, r.key)
		i, _ := slices.BinarySearch(tl.keys, r.key)
		tl.keys = slices.Delete(tl.keys, i, i+1)
		if len(tl.keys) == 0 {
			delete(x.timelines, r.eid)
		}
	}
	x.emptySegs = x.emptySegs[:0]
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

// compareTLPosts orders postings by (timestamp, snippet ID, story), a
// strict total order over a segment's postings.
func compareTLPosts(a, b tlPost) int {
	if c := a.sn.Timestamp.Compare(b.sn.Timestamp); c != 0 {
		return c
	}
	if c := cmp.Compare(a.sn.ID, b.sn.ID); c != 0 {
		return c
	}
	return cmp.Compare(a.story, b.story)
}

// defaultTimelineBucket partitions entity timelines into 3-day runs: a
// week-scale story contributes to a handful of segments, while a
// half-year corpus stays ~60 buckets deep for even the most persistent
// entity.
const defaultTimelineBucket = 72 * time.Hour
