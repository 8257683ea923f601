package vocab

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestInternerRoundTrip(t *testing.T) {
	in := NewInterner()
	a := in.ID("alpha")
	b := in.ID("beta")
	if a == b {
		t.Fatalf("distinct strings share symbol %d", a)
	}
	if got := in.ID("alpha"); got != a {
		t.Fatalf("re-interning alpha = %d, want %d", got, a)
	}
	if got := in.String(a); got != "alpha" {
		t.Fatalf("String(%d) = %q, want alpha", a, got)
	}
	if got := in.String(b); got != "beta" {
		t.Fatalf("String(%d) = %q, want beta", b, got)
	}
	if id, ok := in.Lookup("beta"); !ok || id != b {
		t.Fatalf("Lookup(beta) = %d,%v", id, ok)
	}
	if _, ok := in.Lookup("gamma"); ok {
		t.Fatal("Lookup found a string that was never interned")
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
}

// TestInternerConcurrent hammers one interner from many goroutines over
// an overlapping key space and checks that every string gets exactly one
// symbol and every symbol maps back to its string. Run under -race this
// validates the lock-free read paths.
func TestInternerConcurrent(t *testing.T) {
	in := NewInterner()
	const workers = 8
	const keys = 500
	results := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]uint32, keys)
			for k := 0; k < keys; k++ {
				ids[k] = in.ID(fmt.Sprintf("key-%d", k))
				// Interleave reads with writes.
				if got := in.String(ids[k]); got != fmt.Sprintf("key-%d", k) {
					t.Errorf("String(%d) = %q mid-intern", ids[k], got)
					return
				}
			}
			results[w] = ids
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 1; w < workers; w++ {
		for k := 0; k < keys; k++ {
			if results[w][k] != results[0][k] {
				t.Fatalf("worker %d got %d for key-%d, worker 0 got %d", w, results[w][k], k, results[0][k])
			}
		}
	}
	if in.Len() != keys {
		t.Fatalf("Len = %d, want %d", in.Len(), keys)
	}
}

// vector helpers --------------------------------------------------------

func weightsFromMap(m map[uint32]float64) []IDWeight {
	out := make([]IDWeight, 0, len(m))
	for id, w := range m {
		out = append(out, IDWeight{ID: id, W: w})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func countsFromMap(m map[uint32]int) []IDCount {
	out := make([]IDCount, 0, len(m))
	for id, n := range m {
		out = append(out, IDCount{ID: id, N: int32(n)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func checkSortedWeights(t *testing.T, v []IDWeight) {
	t.Helper()
	for i := 1; i < len(v); i++ {
		if v[i-1].ID >= v[i].ID {
			t.Fatalf("vector not strictly sorted at %d: %v", i, v)
		}
	}
}

// TestAddSubWeightsAgainstMap cross-checks the merge arithmetic against
// a plain map model over random add/sub cycles, including the in-place
// and spare-capacity paths.
func TestAddSubWeightsAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	model := map[uint32]float64{}
	var vec []IDWeight
	for step := 0; step < 300; step++ {
		op := map[uint32]float64{}
		for k := 0; k < 1+rng.Intn(6); k++ {
			op[uint32(rng.Intn(40))] = 0.1 + rng.Float64()
		}
		if rng.Intn(3) > 0 {
			for id, w := range op {
				model[id] += w
			}
			vec = AddWeights(vec, weightsFromMap(op))
		} else {
			for id, w := range op {
				if model[id] -= w; model[id] <= epsWeight {
					delete(model, id)
				}
			}
			vec = SubWeights(vec, weightsFromMap(op))
		}
		checkSortedWeights(t, vec)
		if len(vec) != len(model) {
			t.Fatalf("step %d: len %d, model %d", step, len(vec), len(model))
		}
		for _, e := range vec {
			if math.Abs(e.W-model[e.ID]) > 1e-9 {
				t.Fatalf("step %d: id %d weight %g, model %g", step, e.ID, e.W, model[e.ID])
			}
		}
	}
}

func TestIncDecCountsAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	model := map[uint32]int{}
	var vec []IDCount
	for step := 0; step < 300; step++ {
		idSet := map[uint32]bool{}
		for k := 0; k < 1+rng.Intn(5); k++ {
			idSet[uint32(rng.Intn(30))] = true
		}
		ids := make([]uint32, 0, len(idSet))
		for id := range idSet {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if rng.Intn(3) > 0 {
			for _, id := range ids {
				model[id]++
			}
			vec = IncCounts(vec, ids)
		} else {
			for _, id := range ids {
				if model[id] > 0 {
					if model[id]--; model[id] == 0 {
						delete(model, id)
					}
				}
			}
			vec = DecCounts(vec, ids)
		}
		if len(vec) != len(model) {
			t.Fatalf("step %d: len %d, model %d (vec %v model %v)", step, len(vec), len(model), vec, model)
		}
		for _, e := range vec {
			if int(e.N) != model[e.ID] {
				t.Fatalf("step %d: id %d count %d, model %d", step, e.ID, e.N, model[e.ID])
			}
		}
	}
}

func TestAddCountsMergesVectors(t *testing.T) {
	a := countsFromMap(map[uint32]int{1: 2, 5: 1, 9: 4})
	b := countsFromMap(map[uint32]int{0: 1, 5: 3, 12: 2})
	got := AddCounts(append([]IDCount(nil), a...), b)
	want := countsFromMap(map[uint32]int{0: 1, 1: 2, 5: 4, 9: 4, 12: 2})
	if len(got) != len(want) {
		t.Fatalf("AddCounts = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("AddCounts = %v, want %v", got, want)
		}
	}
}

func TestWeightNorm(t *testing.T) {
	v := []IDWeight{{1, 3}, {2, 4}}
	if got := WeightNorm(v); math.Abs(got-5) > 1e-12 {
		t.Fatalf("WeightNorm = %g, want 5", got)
	}
	if WeightNorm(nil) != 0 {
		t.Fatal("WeightNorm(nil) != 0")
	}
}
