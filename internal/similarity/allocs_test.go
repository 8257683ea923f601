package similarity

import (
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/vocab"
)

// TestKernelAllocs pins the zero-allocation guarantee of the ID-space
// similarity kernels. Identification runs these per candidate comparison
// (hundreds of thousands of times on the Figure-7 workloads), so a single
// heap allocation here regresses the whole experiment — any drift from
// zero is a build-breaking regression, not a soft perf signal.
func TestKernelAllocs(t *testing.T) {
	a := []vocab.IDWeight{{ID: 1, W: 0.5}, {ID: 3, W: 1.5}, {ID: 7, W: 0.25}}
	b := []vocab.IDWeight{{ID: 1, W: 1.0}, {ID: 4, W: 2.0}, {ID: 7, W: 0.5}}
	an, bn := vocab.WeightNorm(a), vocab.WeightNorm(b)
	ids := []uint32{1, 4, 9}
	counts := []vocab.IDCount{{ID: 1, N: 2}, {ID: 4, N: 1}, {ID: 8, N: 3}}
	counts2 := []vocab.IDCount{{ID: 1, N: 1}, {ID: 8, N: 2}, {ID: 11, N: 1}}
	ew := func(uint32) float64 { return 0.5 }

	sn := &event.Snippet{
		ID: 1, Source: "nyt",
		Timestamp: time.Date(2014, 7, 17, 0, 0, 0, 0, time.UTC),
		Entities:  []event.Entity{"MAL", "UKR"},
		Terms:     []event.Term{{Token: "crash", Weight: 2}, {Token: "plane", Weight: 1}},
	}
	sn.Normalize()
	sn2 := sn.Clone()
	sn2.ID = 2
	sn2.Intern()
	ref := sn.Timestamp.Add(24 * time.Hour)
	sn3 := sn.Clone()
	sn3.ID = 3
	sn3.Timestamp = sn.Timestamp.Add(48 * time.Hour)
	sn3.Intern()
	st1, st2 := event.NewStory(1, "nyt"), event.NewStory(2, "nyt")
	st1.Add(sn)
	st1.Add(sn3)
	st2.Add(sn2)
	storyCfg := DefaultStoryConfig()
	storyCfg.EntityWeight = ew

	kernels := map[string]func(){
		"CosineIDs":             func() { CosineIDs(a, b) },
		"CosineIDsNorm":         func() { CosineIDsNorm(a, an, b, bn) },
		"JaccardIDs":            func() { JaccardIDs(ids, counts) },
		"WeightedJaccardIDs":    func() { WeightedJaccardIDs(ids, counts, ew) },
		"JaccardIDSets":         func() { JaccardIDSets(counts, counts2) },
		"WeightedJaccardIDSets": func() { WeightedJaccardIDSets(counts, counts2, ew) },
		"SnippetStoryIDs": func() {
			SnippetStoryIDs(sn, counts, a, an, ref, 72*time.Hour, DefaultWeights(), ew)
		},
		"SnippetsIDs": func() { SnippetsIDs(sn, sn2, 72*time.Hour, DefaultWeights()) },
		"Stories":     func() { Stories(st1, st2, storyCfg) },
	}
	for name, fn := range kernels {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}
