package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func setOf(n int, prefix string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

func trueJaccard(a, b []string) float64 {
	sa := make(map[string]bool, len(a))
	for _, x := range a {
		sa[x] = true
	}
	inter := 0
	sb := make(map[string]bool, len(b))
	for _, x := range b {
		if !sb[x] {
			sb[x] = true
			if sa[x] {
				inter++
			}
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func TestMinHashEstimateAccuracy(t *testing.T) {
	m := NewMinHasher(256, 42)
	// Build sets with known Jaccard: |A|=|B|=100, overlap 50 -> J = 50/150.
	a := setOf(100, "x")
	b := append(setOf(50, "x"), setOf(50, "y")...)
	want := trueJaccard(a, b)
	got := Estimate(m.Sign(a), m.Sign(b))
	if math.Abs(got-want) > 0.1 {
		t.Fatalf("MinHash estimate %g too far from true Jaccard %g", got, want)
	}
}

func TestMinHashIdenticalAndDisjoint(t *testing.T) {
	m := NewMinHasher(64, 1)
	a := setOf(20, "e")
	if got := Estimate(m.Sign(a), m.Sign(a)); got != 1 {
		t.Errorf("identical sets estimate = %g, want 1", got)
	}
	b := setOf(20, "q")
	if got := Estimate(m.Sign(a), m.Sign(b)); got > 0.15 {
		t.Errorf("disjoint sets estimate = %g, want ~0", got)
	}
	// Empty signatures never match, even with each other.
	if got := Estimate(m.Sign(nil), m.Sign(nil)); got != 0 {
		t.Errorf("empty sets estimate = %g, want 0", got)
	}
	if got := Estimate(m.Sign(a), nil); got != 0 {
		t.Errorf("mismatched lengths estimate = %g, want 0", got)
	}
}

func TestMinHashIncrementalUpdateEqualsBatch(t *testing.T) {
	m := NewMinHasher(128, 7)
	all := setOf(50, "w")
	batch := m.Sign(all)
	incr := m.Sign(all[:20])
	m.Update(incr, all[20:])
	for i := range batch {
		if batch[i] != incr[i] {
			t.Fatalf("incremental signature diverges from batch at %d", i)
		}
	}
}

func TestMinHashSignInto(t *testing.T) {
	m := NewMinHasher(32, 3)
	a := setOf(10, "z")
	buf := make(Signature, 32)
	m.SignInto(buf, a)
	want := m.Sign(a)
	for i := range want {
		if buf[i] != want[i] {
			t.Fatal("SignInto differs from Sign")
		}
	}
}

func TestMinHashOrderInvariantQuick(t *testing.T) {
	m := NewMinHasher(64, 9)
	f := func(perm []byte) bool {
		elems := setOf(10, "p")
		shuffled := append([]string{}, elems...)
		rng := rand.New(rand.NewSource(int64(len(perm))))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		s1, s2 := m.Sign(elems), m.Sign(shuffled)
		for i := range s1 {
			if s1[i] != s2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNewMinHasherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMinHasher(0) did not panic")
		}
	}()
	NewMinHasher(0, 1)
}

func TestLSHFindsSimilarItems(t *testing.T) {
	m := NewMinHasher(64, 11)
	l := NewLSH(16, 4)

	base := setOf(100, "x")
	similar := append(setOf(90, "x"), setOf(10, "n")...) // J ≈ 0.82
	different := setOf(100, "q")

	if err := l.Add(1, m.Sign(base)); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(2, m.Sign(different)); err != nil {
		t.Fatal(err)
	}
	got := l.Query(m.Sign(similar), ^uint64(0))
	found := false
	for _, k := range got {
		if k == 1 {
			found = true
		}
		if k == 2 {
			t.Error("LSH returned dissimilar item")
		}
	}
	if !found {
		t.Error("LSH missed highly similar item")
	}
}

func TestLSHAddUpdateRemove(t *testing.T) {
	m := NewMinHasher(64, 5)
	l := NewLSH(16, 4)
	a := setOf(50, "a")
	if err := l.Add(7, m.Sign(a)); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
	// Update with a completely different signature: old buckets must be
	// cleaned so the old set no longer finds key 7.
	b := setOf(50, "b")
	if err := l.Add(7, m.Sign(b)); err != nil {
		t.Fatal(err)
	}
	if got := l.Query(m.Sign(a), ^uint64(0)); len(got) != 0 {
		t.Errorf("stale buckets after update: %v", got)
	}
	if got := l.Query(m.Sign(b), ^uint64(0)); len(got) != 1 || got[0] != 7 {
		t.Errorf("updated item not found: %v", got)
	}
	if !l.Remove(7) {
		t.Fatal("Remove(7) = false")
	}
	if l.Remove(7) {
		t.Fatal("second Remove(7) = true")
	}
	if l.Len() != 0 {
		t.Fatalf("Len after remove = %d", l.Len())
	}
	if got := l.Query(m.Sign(b), ^uint64(0)); len(got) != 0 {
		t.Errorf("removed item still found: %v", got)
	}
}

func TestLSHExcludeKey(t *testing.T) {
	m := NewMinHasher(64, 5)
	l := NewLSH(16, 4)
	a := setOf(50, "a")
	l.Add(1, m.Sign(a))
	if got := l.Query(m.Sign(a), 1); len(got) != 0 {
		t.Errorf("excluded key returned: %v", got)
	}
}

func TestLSHSignatureLengthMismatch(t *testing.T) {
	l := NewLSH(4, 4)
	if err := l.Add(1, make(Signature, 7)); err == nil {
		t.Fatal("Add accepted wrong-length signature")
	}
	if got := l.Query(make(Signature, 7), ^uint64(0)); got != nil {
		t.Fatal("Query accepted wrong-length signature")
	}
}

func TestLSHSignatureAndKeys(t *testing.T) {
	m := NewMinHasher(16, 2)
	l := NewLSH(4, 4)
	sig := m.Sign(setOf(5, "k"))
	l.Add(3, sig)
	got := l.Signature(3)
	if got == nil || got[0] != sig[0] {
		t.Fatal("Signature(3) wrong")
	}
	if l.Signature(99) != nil {
		t.Fatal("Signature of absent key should be nil")
	}
	if keys := l.Keys(); len(keys) != 1 || keys[0] != 3 {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestLSHConcurrent(t *testing.T) {
	m := NewMinHasher(64, 5)
	l := NewLSH(16, 4)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				key := uint64(g*1000 + i)
				sig := m.Sign(setOf(20, fmt.Sprintf("g%d-%d-", g, i)))
				l.Add(key, sig)
				l.Query(sig, key)
				if i%3 == 0 {
					l.Remove(key)
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
