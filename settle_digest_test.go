package storypivot

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/experiments"
)

// settleDigest ingests the arrival sequence into a fresh refinement-on
// pipeline, settles every `every` snippets (and once at the end), and
// chains a sha256 over every settle's result: integrated ID, then per
// member its story ID, Gen and sorted snippet IDs with their roles. Two
// pipelines agree on the digest only if they agreed at every settle.
func settleDigest(t *testing.T, arrivals []*Snippet, every int) [sha256.Size]byte {
	t.Helper()
	p, err := New(WithRefinement(true))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var chain [sha256.Size]byte
	var buf [8]byte
	settle := func() {
		h := sha256.New()
		h.Write(chain[:])
		word := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for _, is := range p.Result().Integrated() {
			word(uint64(is.ID))
			word(uint64(len(is.Members)))
			for _, m := range is.Members {
				word(uint64(m.ID))
				word(m.Gen())
				ids := make([]SnippetID, 0, len(m.Snippets))
				for _, sn := range m.Snippets {
					ids = append(ids, sn.ID)
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				word(uint64(len(ids)))
				for _, id := range ids {
					word(uint64(id))
					word(uint64(is.Roles[id]))
				}
			}
		}
		h.Sum(chain[:0])
	}
	for i, sn := range arrivals {
		if err := p.Ingest(sn.Clone()); err != nil {
			t.Fatalf("ingest %d: %v", sn.ID, err)
		}
		if (i+1)%every == 0 {
			settle()
		}
	}
	settle()
	return chain
}

// TestSettleDigestDeterministic feeds identical streams to three fresh
// pipelines under the schedule the stream engine actually runs — a
// settle every few snippets, refinement on, alignment IDF on — and
// requires them to agree at every settle. It is also the old-vs-new
// check for changes to the settle that claim to preserve its result:
// the digests it logs are compared across commits.
func TestSettleDigestDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 3000 snippets 12 times")
	}
	for _, seed := range []int64{1, 2} {
		corpus := datagen.Generate(experiments.CorpusScale(3000, 8, seed))
		arrivals := corpus.Shuffled(0.1, 8, seed)
		if raceEnabled {
			// A settle is ~7x slower under the race detector and grows
			// with the stream; the head of it runs the same schedule.
			arrivals = arrivals[:1200]
		}
		for _, every := range []int{32, 500} {
			seed, every := seed, every
			t.Run(fmt.Sprintf("seed%d/every%d", seed, every), func(t *testing.T) {
				t.Parallel()
				want := settleDigest(t, arrivals, every)
				t.Logf("%d snippets, digest %x", len(arrivals), want)
				for i := 1; i < 3; i++ {
					if got := settleDigest(t, arrivals, every); got != want {
						t.Fatalf("pipeline %d settled differently: %x, first pipeline %x", i, got, want)
					}
				}
			})
		}
	}
}
