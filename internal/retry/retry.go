// Package retry holds the failure-handling primitives shared by the feed
// runners and the cluster router: a consecutive-failure circuit breaker,
// full-jitter exponential backoff, and a context-aware sleep.
package retry

import (
	"context"
	"math"
	"time"
)

// State is a breaker's position.
type State int

const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a consecutive-failure circuit breaker:
//
//	closed ──(Threshold consecutive failures)──▶ open
//	open ──(Cooldown elapses)──▶ half-open (one probe admitted)
//	half-open ──probe success──▶ closed
//	half-open ──probe failure──▶ open (cooldown restarts)
//
// A failure while open changes nothing. Time comes in as arguments, so a
// breaker needs no clock. It has no lock: its owner's lock guards it.
type Breaker struct {
	Threshold int
	Cooldown  time.Duration

	state    State
	failures int // consecutive, since the last success
	openedAt time.Time
}

// State returns the breaker's position.
func (b *Breaker) State() State { return b.state }

// Failures returns the consecutive-failure streak, failed half-open
// probes included.
func (b *Breaker) Failures() int { return b.failures }

// Remaining returns how much of an open breaker's cooldown is left at
// now: 0 when the breaker is not open or its probe is due.
func (b *Breaker) Remaining(now time.Time) time.Duration {
	if b.state != Open {
		return 0
	}
	return max(0, b.Cooldown-now.Sub(b.openedAt))
}

// Allow reports whether an attempt may proceed at now. An open breaker
// refuses until its cooldown elapses, then moves to half-open and admits
// the probe; wait is how long to sleep before asking again.
func (b *Breaker) Allow(now time.Time) (ok bool, wait time.Duration) {
	if b.state != Open {
		return true, 0
	}
	if wait = b.Remaining(now); wait > 0 {
		return false, wait
	}
	b.state = HalfOpen
	return true, 0
}

// Success records a successful attempt and closes the breaker. It
// reports a readmission: the breaker was open or half-open.
func (b *Breaker) Success() (readmitted bool) {
	readmitted = b.state != Closed
	b.state, b.failures = Closed, 0
	return readmitted
}

// Failure records a failed attempt at now. It reports whether the
// breaker opened: the threshold trip out of closed, or a failed
// half-open probe re-opening it.
func (b *Breaker) Failure(now time.Time) (opened bool) {
	if b.state == Open {
		return false
	}
	b.failures++
	if b.state == HalfOpen || b.failures >= b.Threshold {
		b.state, b.openedAt = Open, now
		return true
	}
	return false
}

// Jitter returns the full-jitter backoff before retry attempt+1: uniform
// in [0, min(cap, base·2^attempt)], with draw(n) returning a value in
// [0, n) as rand.Int63n does. The exponential saturates at cap instead
// of overflowing. Full jitter rather than jitter around the exponential
// decorrelates callers that started failing together, the thundering
// herd when a shared upstream or a restarted worker comes back.
func Jitter(base, cap time.Duration, attempt int, draw func(int64) int64) time.Duration {
	d := cap
	if base <= cap>>attempt {
		d = base << attempt
	}
	if d <= 0 {
		return 0
	}
	n := int64(d)
	if n < math.MaxInt64 {
		n++ // [0, d] inclusive
	}
	return time.Duration(draw(n))
}

// Sleep waits d or until ctx is done; it reports whether the full wait
// elapsed. A non-positive d returns at once, reporting whether ctx is
// still live.
func Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
