package retry

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestBackoffBoundsAndReset(t *testing.T) {
	base, cap := 10*time.Millisecond, 80*time.Millisecond
	rng := rand.New(rand.NewSource(42))
	for attempt := 0; attempt < 10; attempt++ {
		d := Jitter(base, cap, attempt, rng.Int63n)
		limit := base << attempt
		if limit > cap || limit <= 0 {
			limit = cap
		}
		if d < 0 || d > limit {
			t.Fatalf("attempt %d: sleep %v outside [0, %v]", attempt, d, limit)
		}
	}
	// A reset streak starts again at attempt 0.
	if d := Jitter(base, cap, 0, rng.Int63n); d > base {
		t.Fatalf("after reset, first sleep %v > base %v", d, base)
	}
}

func TestBackoffFullJitterSpread(t *testing.T) {
	// Full jitter must actually spread: over many draws at a saturated
	// exponent the samples should not all collapse to one value.
	rng := rand.New(rand.NewSource(7))
	seen := map[time.Duration]bool{}
	for i := 0; i < 50; i++ {
		seen[Jitter(time.Millisecond, 64*time.Millisecond, 20, rng.Int63n)] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct sleeps in 50 draws", len(seen))
	}
}

// TestJitterSaturates: with a cap near MaxInt64 the exponential must
// saturate at the cap for every attempt, never overflow into a negative
// or zero ceiling, and never hand draw a bound it would panic on.
func TestJitterSaturates(t *testing.T) {
	for _, cap := range []time.Duration{math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 / 3} {
		for _, base := range []time.Duration{time.Nanosecond, time.Millisecond, cap / 3} {
			for attempt := 0; attempt <= 200; attempt++ {
				want := base // doubled attempt times, clamped at cap
				for i := 0; i < attempt && want < cap; i++ {
					want = min(cap, want+min(want, cap-want))
				}
				var bound int64
				top := func(n int64) int64 { bound = n; return n - 1 } // the largest draw
				got := Jitter(base, cap, attempt, top)
				if bound <= 0 {
					t.Fatalf("cap %d base %d attempt %d: draw bound %d", cap, base, attempt, bound)
				}
				if got != want && !(want == math.MaxInt64 && got == want-1) {
					t.Fatalf("cap %d base %d attempt %d: ceiling %d, want %d", cap, base, attempt, got, want)
				}
			}
		}
	}
	if d := Jitter(0, time.Second, 5, func(int64) int64 { panic("drew for a zero ceiling") }); d != 0 {
		t.Fatalf("zero base: %v", d)
	}
}

func TestBreakerTransitions(t *testing.T) {
	t0 := time.Unix(1000, 0)
	br := Breaker{Threshold: 3, Cooldown: time.Minute}

	// closed → open after 3 consecutive failures.
	if br.Failure(t0) || br.Failure(t0) {
		t.Fatal("breaker opened before threshold")
	}
	if !br.Failure(t0) {
		t.Fatal("threshold failure did not open the breaker")
	}
	if br.State() != Open {
		t.Fatalf("state = %v, want open", br.State())
	}

	// Open: rejects until the cooldown elapses.
	if ok, wait := br.Allow(t0.Add(30 * time.Second)); ok || wait != 30*time.Second {
		t.Fatalf("allow mid-cooldown = (%v, %v)", ok, wait)
	}

	// Cooldown elapsed: half-open admits one probe.
	if ok, _ := br.Allow(t0.Add(61 * time.Second)); !ok {
		t.Fatal("half-open probe rejected")
	}
	if br.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", br.State())
	}

	// Failed probe re-opens, restarts the cooldown and extends the streak.
	if !br.Failure(t0.Add(61 * time.Second)) {
		t.Fatal("failed probe did not re-open")
	}
	if br.Failures() != 4 {
		t.Fatalf("streak after failed probe = %d, want 4", br.Failures())
	}
	if ok, _ := br.Allow(t0.Add(90 * time.Second)); ok {
		t.Fatal("allow during restarted cooldown")
	}
	if ok, _ := br.Allow(t0.Add(3 * time.Minute)); !ok {
		t.Fatal("second probe rejected")
	}

	// Successful probe closes and clears the streak.
	br.Success()
	if br.State() != Closed || br.Failures() != 0 {
		t.Fatalf("after success: state %v fails %d", br.State(), br.Failures())
	}
}

// TestBreakerFailureWhileOpen: an open breaker ignores failures — the
// streak, the state and the cooldown's start all stay put.
func TestBreakerFailureWhileOpen(t *testing.T) {
	t0 := time.Unix(1000, 0)
	br := Breaker{Threshold: 1, Cooldown: 10 * time.Second}
	br.Failure(t0)
	if br.Failure(t0.Add(5*time.Second)) || br.State() != Open || br.Failures() != 1 {
		t.Fatalf("failure while open moved the breaker: %v, %d failures", br.State(), br.Failures())
	}
	if got := br.Remaining(t0.Add(5 * time.Second)); got != 5*time.Second {
		t.Fatalf("cooldown restarted by a failure while open: %v left", got)
	}
	if got := br.Remaining(t0.Add(time.Minute)); got != 0 {
		t.Fatalf("remaining past the cooldown = %v", got)
	}
}

// TestBreakerReadmission: Success reports a readmission exactly when it
// closes a half-open breaker, never for a closed one.
func TestBreakerReadmission(t *testing.T) {
	t0 := time.Unix(1000, 0)
	br := Breaker{Threshold: 2, Cooldown: time.Second}
	br.Failure(t0)
	if br.Success() {
		t.Fatal("success on a closed (suspect) breaker reported a readmission")
	}
	br.Failure(t0)
	br.Failure(t0)
	if ok, _ := br.Allow(t0.Add(time.Second)); !ok || br.State() != HalfOpen {
		t.Fatalf("probe not admitted: %v", br.State())
	}
	if !br.Success() {
		t.Fatal("success while half-open did not report the readmission")
	}
	if br.Success() {
		t.Fatal("second success reported a second readmission")
	}
}

func TestSleep(t *testing.T) {
	if !Sleep(context.Background(), time.Millisecond) {
		t.Fatal("full sleep reported cancelled")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if Sleep(ctx, time.Hour) || Sleep(ctx, 0) {
		t.Fatal("sleep on a cancelled context reported complete")
	}
}
