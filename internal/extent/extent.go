// Package extent indexes stories by time: a story sits in every bucket
// its pad-widened extent spans, so a lookup near an instant visits the
// stories whose widened extents reach it, not the whole population.
package extent

import (
	"time"

	"repro/internal/event"
)

// Index maps bucket number to the IDs whose widened extent spans it. A
// bucket lists its IDs in append order, disturbed only by swap-removal;
// an emptied bucket is deleted. Not safe for concurrent use.
type Index struct {
	width   int64 // bucket width in nanoseconds
	pad     time.Duration
	buckets map[int64][]event.StoryID
}

// New returns an empty index of buckets width wide whose extents are
// widened by pad on each side. width must be positive.
func New(width, pad time.Duration) *Index {
	return &Index{width: int64(width), pad: pad, buckets: make(map[int64][]event.StoryID)}
}

// Span returns the first and last bucket the extent [start, end] spans
// once widened by the pad.
func (x *Index) Span(start, end time.Time) (lo, hi int64) {
	return start.Add(-x.pad).UnixNano() / x.width, end.Add(x.pad).UnixNano() / x.width
}

// Add appends id to every bucket its widened extent [start, end] spans.
func (x *Index) Add(id event.StoryID, start, end time.Time) {
	lo, hi := x.Span(start, end)
	for b := lo; b <= hi; b++ {
		x.buckets[b] = append(x.buckets[b], id)
	}
}

// Remove swap-removes id from every bucket the widened extent
// [start, end] spans, which must be the extent id was added with.
func (x *Index) Remove(id event.StoryID, start, end time.Time) {
	lo, hi := x.Span(start, end)
	for b := lo; b <= hi; b++ {
		if ids := DropID(x.buckets[b], id); len(ids) > 0 {
			x.buckets[b] = ids
		} else {
			delete(x.buckets, b)
		}
	}
}

// Bucket returns the IDs in bucket b. The slice belongs to the index:
// the caller must not modify it, nor read it past the next Add or Remove.
func (x *Index) Bucket(b int64) []event.StoryID { return x.buckets[b] }

// At returns the IDs in the bucket holding instant t, as Bucket does.
func (x *Index) At(t time.Time) []event.StoryID { return x.buckets[t.UnixNano()/x.width] }

// DropID swap-removes the first occurrence of id from list.
func DropID(list []event.StoryID, id event.StoryID) []event.StoryID {
	for i, v := range list {
		if v == id {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}
