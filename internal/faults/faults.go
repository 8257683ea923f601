// Package faults is a fault-injection harness for end-to-end testing
// of the serving layer. It builds HTTP handlers (and an Injector
// middleware) that misbehave on demand — hang, panic, abort the
// connection mid-response, or fail N times — so tests can prove the
// resilience properties the httpx stack claims: shutdown drains,
// overload sheds, panics are contained.
//
// The primitives are deterministic, not probabilistic: a Blocker
// signals when a request has entered the handler and parks it until
// the test releases it, which lets tests overlap in-flight requests
// with shutdown or rebuild without sleeping and hoping.
package faults

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/retry"
)

// Blocker is a two-phase rendezvous for holding requests in flight.
// Each Wait() call signals Entered and then parks until Release (or
// the request context is cancelled). Tests typically: issue a request
// in a goroutine, receive from Entered to know it is inside the
// handler, trigger the behaviour under test, then Release.
type Blocker struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

// NewBlocker creates a Blocker able to buffer up to capacity
// concurrent Entered signals without a receiver.
func NewBlocker(capacity int) *Blocker {
	return &Blocker{
		entered: make(chan struct{}, capacity),
		release: make(chan struct{}),
	}
}

// Entered receives one signal per request that reached Wait.
func (b *Blocker) Entered() <-chan struct{} { return b.entered }

// Release unparks all current and future Wait calls. Idempotent.
func (b *Blocker) Release() { b.once.Do(func() { close(b.release) }) }

// Wait signals entry and parks until Release or done is closed.
func (b *Blocker) Wait(done <-chan struct{}) {
	select {
	case b.entered <- struct{}{}:
	default: // more entries than capacity: still park, just don't signal
	}
	select {
	case <-b.release:
	case <-done:
	}
}

// Handler returns a handler that parks in the Blocker, then (once
// released) delegates to inner. A nil inner answers 200 "ok".
func (b *Blocker) Handler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.Wait(r.Context().Done())
		serveInner(inner, w, r)
	})
}

func serveInner(inner http.Handler, w http.ResponseWriter, r *http.Request) {
	if inner == nil {
		w.Write([]byte("ok"))
		return
	}
	inner.ServeHTTP(w, r)
}

// Slow returns a handler that sleeps d (or until the request context
// is cancelled) before delegating to inner.
func Slow(d time.Duration, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		retry.Sleep(r.Context(), d)
		serveInner(inner, w, r)
	})
}

// Panicking returns a handler that panics with v on every request.
func Panicking(v any) http.Handler {
	return http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(v)
	})
}

// Abort returns a handler that writes a partial body and then aborts
// the connection via http.ErrAbortHandler — the sanctioned mid-response
// failure, as produced by a backend dying between header and body.
func Abort(partial string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if partial != "" {
			w.Write([]byte(partial))
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
		panic(http.ErrAbortHandler)
	})
}

// Injector is programmable per-request fault middleware: tests arm a
// behaviour (delay, one-shot panic, one-shot abort, fail-N) and every
// request consults the armed state before reaching the wrapped
// handler. All methods are safe for concurrent use.
type Injector struct {
	delay     atomic.Int64 // nanoseconds applied to every request
	panicOnce atomic.Bool
	abortOnce atomic.Bool
	failN     atomic.Int64
	failCode  atomic.Int64
}

// SetDelay makes every subsequent request sleep d before proceeding.
func (i *Injector) SetDelay(d time.Duration) { i.delay.Store(int64(d)) }

// PanicOnce arms a panic for the next request only.
func (i *Injector) PanicOnce() { i.panicOnce.Store(true) }

// AbortOnce arms a mid-response connection abort for the next request.
func (i *Injector) AbortOnce() { i.abortOnce.Store(true) }

// FailN makes the next n requests answer code without reaching the
// wrapped handler.
func (i *Injector) FailN(n int, code int) {
	i.failCode.Store(int64(code))
	i.failN.Store(int64(n))
}

// Wrap returns inner with the injector's armed faults applied first.
func (i *Injector) Wrap(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if i.panicOnce.CompareAndSwap(true, false) {
			panic("faults: injected panic")
		}
		if i.abortOnce.CompareAndSwap(true, false) {
			Abort("{\"partial\":").ServeHTTP(w, r)
			return
		}
		if n := i.failN.Add(-1); n >= 0 {
			http.Error(w, "injected failure", int(i.failCode.Load()))
			return
		}
		i.failN.Store(-1) // keep the counter from wandering toward MinInt64
		if d := time.Duration(i.delay.Load()); d > 0 {
			Slow(d, inner).ServeHTTP(w, r)
			return
		}
		serveInner(inner, w, r)
	})
}
