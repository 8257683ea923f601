package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/event"
)

func asg(pairs ...uint64) Assignment {
	// pairs are (id, label) alternating.
	a := make(Assignment)
	for i := 0; i+1 < len(pairs); i += 2 {
		a[event.SnippetID(pairs[i])] = pairs[i+1]
	}
	return a
}

func TestPairwisePerfect(t *testing.T) {
	truth := asg(1, 10, 2, 10, 3, 20, 4, 20)
	pred := asg(1, 77, 2, 77, 3, 88, 4, 88) // same partition, different labels
	got := Pairwise(pred, truth)
	if got.Precision != 1 || got.Recall != 1 || got.F1 != 1 {
		t.Fatalf("perfect clustering = %+v", got)
	}
}

func TestPairwiseKnownValues(t *testing.T) {
	// Truth: {1,2,3} {4}. Pred: {1,2} {3,4}.
	truth := asg(1, 1, 2, 1, 3, 1, 4, 2)
	pred := asg(1, 9, 2, 9, 3, 8, 4, 8)
	got := Pairwise(pred, truth)
	// Pred-positive pairs: (1,2), (3,4) -> 2. TP: (1,2) -> 1. P = 1/2.
	// Truth pairs: (1,2),(1,3),(2,3) -> 3. R = 1/3.
	if math.Abs(got.Precision-0.5) > 1e-12 || math.Abs(got.Recall-1.0/3) > 1e-12 {
		t.Fatalf("got %+v, want P=0.5 R=0.333", got)
	}
	wantF1 := 2 * 0.5 * (1.0 / 3) / (0.5 + 1.0/3)
	if math.Abs(got.F1-wantF1) > 1e-12 {
		t.Fatalf("F1 = %g, want %g", got.F1, wantF1)
	}
}

func TestPairwiseAllSingletons(t *testing.T) {
	truth := asg(1, 1, 2, 2, 3, 3)
	pred := asg(1, 5, 2, 6, 3, 7)
	got := Pairwise(pred, truth)
	if got.F1 != 1 {
		t.Fatalf("all-singleton agreement = %+v, want perfect", got)
	}
}

func TestPairwiseOneBigCluster(t *testing.T) {
	// Pred lumps everything together; truth has two clusters of 2.
	truth := asg(1, 1, 2, 1, 3, 2, 4, 2)
	pred := asg(1, 9, 2, 9, 3, 9, 4, 9)
	got := Pairwise(pred, truth)
	if got.Recall != 1 {
		t.Errorf("lumping recall = %g, want 1", got.Recall)
	}
	if got.Precision >= 1 {
		t.Errorf("lumping precision = %g, want < 1", got.Precision)
	}
}

func TestPairwiseDisjointIDs(t *testing.T) {
	truth := asg(1, 1)
	pred := asg(2, 1)
	got := Pairwise(pred, truth)
	if got != (PRF{}) {
		t.Fatalf("no shared IDs = %+v, want zero", got)
	}
}

func TestBCubedKnownValues(t *testing.T) {
	// Truth: {1,2,3,4}. Pred: {1,2},{3,4}.
	truth := asg(1, 1, 2, 1, 3, 1, 4, 1)
	pred := asg(1, 9, 2, 9, 3, 8, 4, 8)
	got := BCubed(pred, truth)
	// Precision: every element's predicted cluster is pure -> 1.
	// Recall: each element reaches 2 of its 4 true peers -> 0.5.
	if math.Abs(got.Precision-1) > 1e-12 || math.Abs(got.Recall-0.5) > 1e-12 {
		t.Fatalf("BCubed = %+v", got)
	}
}

func TestBCubedPerfectAndBounds(t *testing.T) {
	truth := asg(1, 1, 2, 1, 3, 2)
	if got := BCubed(truth, truth); got.F1 != 1 {
		t.Fatalf("self-comparison = %+v", got)
	}
	if got := BCubed(Assignment{}, truth); got != (PRF{}) {
		t.Fatalf("empty pred = %+v", got)
	}
}

func TestNMI(t *testing.T) {
	truth := asg(1, 1, 2, 1, 3, 2, 4, 2)
	// Identical partition (renamed labels).
	if got := NMI(asg(1, 7, 2, 7, 3, 9, 4, 9), truth); math.Abs(got-1) > 1e-9 {
		t.Errorf("identical partitions NMI = %g", got)
	}
	// Orthogonal-ish partition scores lower.
	cross := NMI(asg(1, 1, 2, 2, 3, 1, 4, 2), truth)
	if !(cross < 0.5) {
		t.Errorf("crossed partition NMI = %g, want low", cross)
	}
	// Both trivial (single cluster each side).
	if got := NMI(asg(1, 1, 2, 1), asg(1, 5, 2, 5)); got != 1 {
		t.Errorf("trivial identical NMI = %g", got)
	}
	if got := NMI(Assignment{}, truth); got != 0 {
		t.Errorf("empty NMI = %g", got)
	}
}

func TestMetricsBoundsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		n := 2 + rng.Intn(40)
		pred, truth := make(Assignment), make(Assignment)
		for i := 0; i < n; i++ {
			id := event.SnippetID(i)
			pred[id] = uint64(rng.Intn(5))
			truth[id] = uint64(rng.Intn(5))
		}
		pw, bc, nmi := Pairwise(pred, truth), BCubed(pred, truth), NMI(pred, truth)
		for _, v := range []float64{pw.Precision, pw.Recall, pw.F1, bc.Precision, bc.Recall, bc.F1, nmi} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		// Self-comparison is always perfect.
		self := Pairwise(pred, pred)
		return self.F1 == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFromIntegrated(t *testing.T) {
	st1 := event.NewStory(1, "nyt")
	st1.Add(&event.Snippet{ID: 1, Source: "nyt", Timestamp: time.Unix(1, 0)})
	st2 := event.NewStory(2, "wsj")
	st2.Add(&event.Snippet{ID: 2, Source: "wsj", Timestamp: time.Unix(1, 0)})
	is := event.NewIntegratedStory(5, []*event.Story{st1, st2})
	a := FromIntegrated([]*event.IntegratedStory{is})
	if len(a) != 2 || a[1] != 5 || a[2] != 5 {
		t.Fatalf("FromIntegrated = %v", a)
	}
}

func TestRestrict(t *testing.T) {
	a := asg(1, 1, 2, 1, 3, 2)
	got := a.Restrict(func(id event.SnippetID) bool { return id != 2 })
	if len(got) != 2 {
		t.Fatalf("Restrict = %v", got)
	}
	if _, ok := got[2]; ok {
		t.Fatal("filtered ID retained")
	}
}

func TestARI(t *testing.T) {
	truth := asg(1, 1, 2, 1, 3, 2, 4, 2)
	// Identical partition (labels renamed) -> 1.
	if got := ARI(asg(1, 9, 2, 9, 3, 8, 4, 8), truth); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical ARI = %g", got)
	}
	// Self comparison -> 1.
	if got := ARI(truth, truth); math.Abs(got-1) > 1e-12 {
		t.Errorf("self ARI = %g", got)
	}
	// Known value: truth {1,2,3},{4}; pred {1,2},{3,4}.
	tr := asg(1, 1, 2, 1, 3, 1, 4, 2)
	pr := asg(1, 9, 2, 9, 3, 8, 4, 8)
	// sumCells = C(2,2)+C(1,2)+C(1,2) = 1; sumPred = 2; sumTruth = 3;
	// total = 6; expected = 1; maxIdx = 2.5 -> ARI = 0.
	if got := ARI(pr, tr); math.Abs(got) > 1e-12 {
		t.Errorf("known ARI = %g, want 0", got)
	}
	// Empty / tiny inputs.
	if got := ARI(Assignment{}, truth); got != 0 {
		t.Errorf("empty ARI = %g", got)
	}
	if got := ARI(asg(1, 1), asg(1, 5)); got != 0 {
		t.Errorf("single-element ARI = %g", got)
	}
	// Degenerate identical trivial partitions.
	if got := ARI(asg(1, 1, 2, 1), asg(1, 7, 2, 7)); got != 1 {
		t.Errorf("trivial identical ARI = %g", got)
	}
}

func TestARIBoundsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func(int64) bool {
		n := 3 + rng.Intn(30)
		pred, truth := make(Assignment), make(Assignment)
		for i := 0; i < n; i++ {
			id := event.SnippetID(i)
			pred[id] = uint64(rng.Intn(4))
			truth[id] = uint64(rng.Intn(4))
		}
		v := ARI(pred, truth)
		return v >= -1-1e-9 && v <= 1+1e-9 && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
