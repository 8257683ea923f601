package identify

import (
	"testing"
	"time"

	"repro/internal/event"
)

// TestProcessSteadyStateAllocs pins the steady-state allocation profile of
// the identification hot path. After warm-up (stories exist, scratch
// buffers and vector capacities are grown), a Process call whose snippet
// attaches to an existing story must not allocate at all: candidate
// scanning reuses candScratch, scoring runs the ID-space kernels on
// pre-interned vectors, and the story aggregates update in place. The test
// processes a probe and then removes it again so every measured iteration
// sees the identical warm state.
func TestProcessSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeComplete
	cfg.RepairEvery = 0
	cfg.UseSketchIndex = false
	cfg.UseEntityIDF = false
	id := New("nyt", cfg, nil)
	base := time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)

	// Warm-up corpus: three clearly separated stories.
	topics := []struct {
		ents  []event.Entity
		terms []event.Term
	}{
		{[]event.Entity{"MAL", "UKR"}, []event.Term{{Token: "crash", Weight: 2}, {Token: "plane", Weight: 1}}},
		{[]event.Entity{"GAZ", "ISR"}, []event.Term{{Token: "strike", Weight: 2}, {Token: "border", Weight: 1}}},
		{[]event.Entity{"FIFA", "GER"}, []event.Term{{Token: "final", Weight: 2}, {Token: "goal", Weight: 1}}},
	}
	next := event.SnippetID(1)
	for i := 0; i < 30; i++ {
		tp := topics[i%len(topics)]
		sn := &event.Snippet{
			ID: next, Source: "nyt",
			Timestamp: base.Add(time.Duration(i) * time.Hour),
			Entities:  append([]event.Entity(nil), tp.ents...),
			Terms:     append([]event.Term(nil), tp.terms...),
		}
		next++
		sn.Normalize()
		id.Process(sn)
	}

	probe := &event.Snippet{
		ID: next, Source: "nyt",
		Timestamp: base.Add(40 * time.Hour),
		Entities:  []event.Entity{"MAL", "UKR"},
		Terms:     []event.Term{{Token: "crash", Weight: 2}, {Token: "plane", Weight: 1}},
	}
	probe.Normalize()

	cycle := func() {
		sid := id.Process(probe)
		st := id.stories[sid]
		if st == nil || !st.Remove(probe.ID) {
			t.Fatalf("probe did not attach cleanly to story %d", sid)
		}
		delete(id.assign, probe.ID)
	}
	// Extra warm cycles beyond AllocsPerRun's own warm-up run: the first
	// attach may still grow the story's snippet slice capacity.
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("steady-state Process: %v allocs/op, want 0", allocs)
	}

	// The stream engine drains the record after every few Process calls;
	// the record and Drain's result buffer are reused.
	drainCycle := func() {
		cycle()
		if drained := id.Drain(); len(drained) != 1 {
			t.Fatalf("Drain after one attach = %v, want the one story", drained)
		}
	}
	id.Drain() // the warm-up's stories
	drainCycle()
	if allocs := testing.AllocsPerRun(100, drainCycle); allocs != 0 {
		t.Errorf("steady-state Process+Drain: %v allocs/op, want 0", allocs)
	}
}
