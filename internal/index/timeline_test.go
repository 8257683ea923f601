package index

import (
	"slices"
	"testing"
	"time"

	"repro/internal/event"
)

// TestFinishTimelinesAllocatesNothing pins the per-publish re-sort: with
// the dirty list at capacity, finishTimelines re-sorts every dirty segment
// in place with no allocation, and leaves each in (timestamp, snippet ID,
// story) order.
func TestFinishTimelinesAllocatesNothing(t *testing.T) {
	const segs, posts = 64, 40
	x := New(Options{})
	base := time.Date(2014, time.July, 17, 0, 0, 0, 0, time.UTC)
	var all []*tlSegment
	for s := 0; s < segs; s++ {
		seg := &tlSegment{}
		for p := 0; p < posts; p++ {
			// Timestamps tie in fours and IDs in pairs, so every key of
			// the order decides somewhere.
			sn := &event.Snippet{ID: event.SnippetID(p / 2), Timestamp: base.Add(time.Duration(p/4) * time.Hour)}
			seg.posts = append(seg.posts, tlPost{sn: sn, story: event.StoryID(p % 2)})
		}
		all = append(all, seg)
	}
	dirty := func() {
		for _, seg := range all {
			slices.Reverse(seg.posts)
			seg.dirty = true
			x.dirtySegs = append(x.dirtySegs, seg)
		}
	}
	if n := testing.AllocsPerRun(20, func() { dirty(); x.finishTimelines() }); n != 0 {
		t.Fatalf("re-sorting %d dirty segments allocates %v times, want 0", segs, n)
	}
	for _, seg := range all {
		if seg.dirty || !slices.IsSortedFunc(seg.posts, compareTLPosts) {
			t.Fatal("a segment is left dirty or unsorted")
		}
	}
	if len(x.dirtySegs) != 0 {
		t.Fatalf("%d segments left on the dirty list", len(x.dirtySegs))
	}
}
