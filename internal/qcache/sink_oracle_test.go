package qcache

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/datagen"
	"repro/internal/event"
	"repro/internal/retire"
	"repro/internal/stream"
	"repro/internal/vocab"
)

// fingerprintSink is the invalidator the version sink replaced, kept as
// its oracle: it fingerprints each member's integrated story as a
// commutative hash over (memberID, Gen) of all members and keeps the
// integrated story's symbol-group bitmap per member. Its changes is the
// old Publish, returning the bumps instead of applying them.
type fingerprintSink struct {
	mu      sync.Mutex
	members map[event.StoryID]memberState
	own     map[event.StoryID]ownState
	live    map[event.StoryID]bool // scratch, reused across publishes
}

// memberState is what the sink remembers about one per-source story:
// the fingerprint of the integrated story it belonged to at the last
// publish, and that integrated story's symbol groups.
type memberState struct {
	intKey uint64
	bits   Bits
}

// ownState caches a story's own symbol groups keyed by Gen, so an
// unchanged story costs one map lookup per publish instead of a walk
// over its entity and centroid vectors.
type ownState struct {
	gen  uint64
	bits Bits
}

func newFingerprintSink() *fingerprintSink {
	return &fingerprintSink{
		members: make(map[event.StoryID]memberState),
		own:     make(map[event.StoryID]ownState),
		live:    make(map[event.StoryID]bool),
	}
}

func (s *fingerprintSink) changes(res *align.Result) Bits {
	s.mu.Lock()
	defer s.mu.Unlock()
	var acc Bits
	clear(s.live)
	for _, is := range res.Integrated {
		// Fingerprint and symbol groups of the whole integrated story,
		// computed once and attributed to every member. The fingerprint
		// is order-independent (members are sorted, but cheap insurance)
		// and covers both membership and every member's Gen.
		var sum, xor uint64
		var ibits Bits
		for _, m := range is.Members {
			h := mixSink(uint64(m.ID)*0x9E3779B97F4A7C15 ^ m.Gen())
			sum += h
			xor ^= h
			ibits = ibits.Or(s.ownBits(m))
		}
		intKey := mixSink(sum ^ (xor * 0xD6E8FEB86659FD93))

		for _, m := range is.Members {
			s.live[m.ID] = true
			old, seen := s.members[m.ID]
			switch {
			case !seen:
				acc = acc.Or(ibits)
			case old.intKey != intKey:
				// Changed content or changed membership: both the old
				// and the new renderings are affected.
				acc = acc.Or(old.bits).Or(ibits)
			}
			s.members[m.ID] = memberState{intKey: intKey, bits: ibits}
		}
	}
	// Members that vanished (RemoveSource, identifier repair): their
	// old pages are stale.
	for id, st := range s.members {
		if !s.live[id] {
			acc = acc.Or(st.bits)
			delete(s.members, id)
			delete(s.own, id)
		}
	}
	return acc
}

// ownBits returns the symbol groups of one story, cached per Gen.
func (s *fingerprintSink) ownBits(m *event.Story) Bits {
	if st, ok := s.own[m.ID]; ok && st.gen == m.Gen() {
		return st.bits
	}
	var b Bits
	for _, ec := range m.EntityFreq {
		b.Set(groupOf(kindEntity, vocab.Entities.String(ec.ID)))
	}
	for _, tw := range m.Centroid {
		b.Set(groupOf(kindTerm, vocab.Terms.String(tw.ID)))
	}
	s.own[m.ID] = ownState{gen: m.Gen(), bits: b}
	return b
}

// mixSink is splitmix64's finalizer: a cheap bijective scrambler so
// structured (ID, Gen) pairs spread over the full hash space before
// the commutative sum/xor combine.
func mixSink(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// pairedSinks feeds every publish to the version sink and to the
// fingerprint oracle, and keeps the first publish whose bump sets differ.
//
// The version sink is allowed one kind of extra bump, the conservative
// case of the version contract: an integrated story published under a new
// version although its member pointers are the ones of the last publish.
// The engine's Gen-skip never hands the aligner a new snapshot at the
// same Gen, but a settle can drop such a story in one of its Results and
// build it again from the same members in the next; the oracle sees the
// same (ID, Gen) list and bumps nothing. Those stories' groups
// are added to the oracle's set, and the two must then be equal.
type pairedSinks struct {
	got  *Sink
	want *fingerprintSink
	prev map[event.IntegratedID]*event.IntegratedStory // the last publish

	publishes, renewed, gone, rebuilt int
	err                               error
}

func (p *pairedSinks) Publish(res *align.Result) {
	p.publishes++
	got, want := p.got.changes(res), p.want.changes(res)
	// Count the two cases a version comparison exists for, an integrated
	// ID published again under a new version and one that is gone, and
	// allow the rebuilt ones.
	next := make(map[event.IntegratedID]*event.IntegratedStory, len(res.Integrated))
	for _, is := range res.Integrated {
		next[is.ID] = is
		old, ok := p.prev[is.ID]
		if !ok || old.Version == is.Version {
			continue
		}
		p.renewed++
		if slices.Equal(old.Members, is.Members) {
			p.rebuilt++
			want = want.Or(storyBits(is))
		}
	}
	for id := range p.prev {
		if _, ok := next[id]; !ok {
			p.gone++
		}
	}
	p.prev = next
	if got != want && p.err == nil {
		p.err = fmt.Errorf("publish %d: the version sink bumps %d groups, the fingerprint oracle %d (%d in common)",
			p.publishes, got.Count(), want.Count(), and(got, want).Count())
	}
}

func and(x, y Bits) Bits {
	for i := range x {
		x[i] &= y[i]
	}
	return x
}

// TestSinkMatchesFingerprintOracle drives refinement-on engines with a
// retirement window over generated streams, removes a source mid-stream,
// and requires the version sink's bump set to equal the fingerprint
// oracle's after every publish.
func TestSinkMatchesFingerprintOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			gen := datagen.DefaultConfig()
			gen.Seed, gen.Sources, gen.Stories, gen.EventsPerStory = seed, 5, 24, 10
			corpus := datagen.Generate(gen)

			opts := stream.DefaultOptions()
			opts.RefineOnAlign = true
			opts.AutoAlignEvery = 32
			e := stream.NewEngine(opts)
			mgr, err := retire.Open(retire.Config{
				Window:      16 * 24 * time.Hour,
				Dir:         t.TempDir(),
				IdentWindow: opts.Identify.Window,
				AlignSlack:  opts.Align.Slack,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			e.SetRetirer(mgr)
			p := &pairedSinks{got: NewSink(New(Config{SweepInterval: -1})), want: newFingerprintSink()}
			e.AddResultSink(p)

			removeAt := len(corpus.Snippets) * 3 / 5
			for i, sn := range corpus.Snippets {
				if _, err := e.Ingest(sn); err != nil {
					t.Fatal(err)
				}
				if i == removeAt {
					if !e.RemoveSource(corpus.Snippets[0].Source) {
						t.Fatal("RemoveSource had nothing to remove")
					}
					e.Align()
				}
				if p.err != nil {
					t.Fatal(p.err)
				}
			}
			e.Align()
			if p.err != nil {
				t.Fatal(p.err)
			}
			view := mgr.Snapshot()
			t.Logf("%d snippets, %d publishes, %d integrated IDs renewed (%d with the same members), %d gone, %d stories retired",
				len(corpus.Snippets), p.publishes, p.renewed, p.rebuilt, p.gone, view.Retired)
			if p.renewed == 0 || p.gone == 0 || view.Retired == 0 {
				t.Fatal("no ID was renewed, none went or nothing retired: the comparison is vacuous")
			}
		})
	}
}
