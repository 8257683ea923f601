package extent

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/event"
)

// TestIndexMatchesBruteForce applies random add, remove and re-extent
// sequences, with extents that start and end on, just before and just
// after bucket edges, and after every step compares each bucket with a
// brute-force model: the live entries whose widened extent intersects
// the bucket's interval, found by comparing instants rather than bucket
// numbers, in the order appends and swap-removes leave them. No empty
// bucket may remain in the index.
func TestIndexMatchesBruteForce(t *testing.T) {
	const (
		width = 7 * 24 * time.Hour
		nb    = 12 // buckets the extents are drawn from
	)
	b0 := time.Date(2014, 6, 2, 0, 0, 0, 0, time.UTC).UnixNano() / int64(width)
	base := time.Unix(0, b0*int64(width)) // a bucket edge
	type span struct{ start, end time.Time }
	// The aligner pads by its slack (0 included), retirement by the bucket
	// width; a pad wider than a bucket widens an extent by several.
	pads := []time.Duration{0, 3 * 24 * time.Hour, width, 10 * 24 * time.Hour}
	for seed := int64(1); seed <= 40; seed++ {
		pad := pads[seed%4]
		// The model scans a margin of buckets around the drawn ones, so an
		// ID the index put beyond every widened extent would show.
		margin := int64(pad/width) + 2
		rng := rand.New(rand.NewSource(seed))
		instant := func() time.Time {
			edge := base.Add(time.Duration(rng.Intn(nb)) * width)
			switch rng.Intn(4) {
			case 0:
				return edge
			case 1:
				return edge.Add(-time.Nanosecond)
			case 2:
				return edge.Add(time.Nanosecond)
			default:
				return edge.Add(time.Duration(rng.Int63n(int64(width))))
			}
		}
		extentOf := func() span {
			a, b := instant(), instant()
			if b.Before(a) {
				a, b = b, a
			}
			return span{a, b}
		}
		spans := func(s span, b int64) bool {
			lo := time.Unix(0, b*int64(width))
			return s.start.Add(-pad).Before(lo.Add(width)) && !s.end.Add(pad).Before(lo)
		}

		x := New(width, pad)
		live := make(map[event.StoryID]span)
		model := make(map[int64][]event.StoryID)
		add := func(id event.StoryID, s span) {
			x.Add(id, s.start, s.end)
			live[id] = s
			for b := b0 - margin; b < b0+nb+margin; b++ {
				if spans(s, b) {
					model[b] = append(model[b], id)
				}
			}
		}
		remove := func(id event.StoryID) {
			s := live[id]
			x.Remove(id, s.start, s.end)
			delete(live, id)
			for b := b0 - margin; b < b0+nb+margin; b++ {
				i := slices.Index(model[b], id)
				if i < 0 {
					continue
				}
				last := len(model[b]) - 1
				model[b][i] = model[b][last]
				model[b] = model[b][:last]
			}
		}
		for step := 0; step < 400; step++ {
			id := event.StoryID(rng.Intn(40) + 1)
			_, known := live[id]
			switch {
			case !known:
				add(id, extentOf())
			case rng.Intn(2) == 0:
				remove(id)
			default: // re-extent, as the aligner re-upserts a grown story
				remove(id)
				add(id, extentOf())
			}

			nonEmpty := 0
			for b := b0 - margin; b < b0+nb+margin; b++ {
				want := model[b]
				if len(want) > 0 {
					nonEmpty++
				}
				if got := x.Bucket(b); !slices.Equal(got, want) {
					t.Fatalf("seed %d pad %v step %d: bucket %d holds %v, want %v", seed, pad, step, b-b0, got, want)
				}
			}
			for b, ids := range x.buckets {
				if len(ids) == 0 {
					t.Fatalf("seed %d pad %v step %d: empty bucket %d left in the index", seed, pad, step, b-b0)
				}
			}
			if len(x.buckets) != nonEmpty {
				t.Fatalf("seed %d pad %v step %d: index holds %d buckets, want %d", seed, pad, step, len(x.buckets), nonEmpty)
			}
			for id, s := range live {
				if !slices.Contains(x.At(s.start), id) || !slices.Contains(x.At(s.end), id) {
					t.Fatalf("seed %d pad %v step %d: At misses story %d at an end of its extent", seed, pad, step, id)
				}
			}
		}
	}
}
