package feed

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/retry"
	"repro/internal/storage"
	"repro/internal/stream"
)

// runner drives one source: fetch → decode → ingest → settle → advance
// cursor, forever. It hands its batch to the sink itself, record by
// record in fetch order, so a source has at most one record in flight and
// reaches the sink in the order it sent. All failure handling is local to
// the runner, so a flapping or quarantined source never stalls its
// siblings; runners of different sources ingest in parallel.
type runner struct {
	m   *Manager
	f   Fetcher
	src string
	rng *rand.Rand // backoff jitter; used by the runner goroutine only

	// Cluster-assignment plumbing: assigned runners are started and
	// stopped at runtime by Manager.Assign; cancel/done give each one an
	// individually stoppable lifetime nested inside the manager's.
	assigned bool
	spec     Spec
	cancel   context.CancelFunc
	done     chan struct{}

	mu        sync.Mutex
	br        retry.Breaker
	cursor    string
	caughtUp  bool
	state     State
	interim   bool
	lastError string
	lastFetch time.Time

	fetches      atomic.Uint64
	fetchErrors  atomic.Uint64
	snippets     atomic.Uint64
	duplicates   atomic.Uint64
	malformed    atomic.Uint64
	ingestErrors atomic.Uint64
}

// run is the runner goroutine body.
func (r *runner) run(ctx context.Context) {
	defer r.m.runnerWG.Done()
	metRunners.Add(1)
	defer metRunners.Add(-1)
	for ctx.Err() == nil {
		// Quarantine gate: while the breaker is open the runner sleeps
		// out the cooldown instead of hammering a dead source. When the
		// cooldown elapses, Allow admits exactly one half-open probe.
		r.mu.Lock()
		ok, wait := r.br.Allow(time.Now())
		r.mu.Unlock()
		if !ok {
			if !retry.Sleep(ctx, wait) {
				return
			}
			continue
		}
		batch, err := r.fetch(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return // shutdown, not a source failure
			}
			r.fetchErrors.Add(1)
			metFetchErrors.Inc()
			metRetries.Inc()
			if !retry.Sleep(ctx, r.record(err)) {
				return
			}
			continue
		}
		r.record(nil)

		// Malformed records are acknowledged into the DLQ: the cursor
		// moves past them, so one poison record is quarantined once
		// instead of re-fetched forever.
		for _, mf := range batch.Malformed {
			r.malformed.Add(1)
			metMalformed.Inc()
			r.m.deadLetter(r, mf.Raw, mf.Reason)
		}
		for _, sn := range batch.Snippets {
			if ctx.Err() != nil {
				return // cancelled mid-batch: cursor stays put, redelivered next run
			}
			r.ingest(sn)
		}
		if st, ok := r.m.sink.(Settler); ok && len(batch.Snippets) > 0 {
			st.Settle()
		}
		r.advance(batch.Next, batch.Done)
		if batch.Done {
			// Caught up: poll for growth instead of spinning.
			if !retry.Sleep(ctx, r.m.cfg.PollInterval) {
				return
			}
		}
	}
}

// ingest hands one record to the sink. Duplicate rejections (engine
// dedup or storage ID collision) are acknowledgements — that is what
// makes at-least-once redelivery after a cursor rollback safe. Other sink
// rejections are dead-lettered so the batch they rode in on is not
// poisoned.
func (r *runner) ingest(sn *event.Snippet) {
	err := r.m.sink.Ingest(sn)
	switch {
	case err == nil:
		r.snippets.Add(1)
		metSnippets.Inc()
	case errors.Is(err, stream.ErrDuplicate) || errors.Is(err, storage.ErrDuplicate):
		r.duplicates.Add(1)
		metDuplicates.Inc()
	default:
		r.ingestErrors.Add(1)
		metIngestErrs.Inc()
		r.setLastError(err.Error())
		r.m.deadLetter(r, event.Encode(sn), err.Error())
	}
}

// fetch runs one Fetch under the per-fetch timeout, containing fetcher
// panics: a buggy fetcher costs one failed attempt, not the process.
func (r *runner) fetch(ctx context.Context) (batch Batch, err error) {
	fctx, cancel := context.WithTimeout(ctx, r.m.cfg.FetchTimeout)
	defer cancel()
	r.fetches.Add(1)
	metFetches.Inc()
	r.mu.Lock()
	cursor := r.cursor
	r.lastFetch = time.Now()
	r.mu.Unlock()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("feed: fetcher panic: %v", p)
		}
	}()
	return r.f.Fetch(fctx, cursor, r.m.cfg.BatchSize)
}

// advance adopts the post-batch cursor. It runs only after every record
// of the batch was acknowledged, so a checkpointed cursor never claims
// data that is in neither the sink nor the DLQ.
func (r *runner) advance(next string, done bool) {
	r.mu.Lock()
	if next != "" {
		r.cursor = next
	}
	r.caughtUp = done
	r.mu.Unlock()
}

// record applies one fetch outcome to the breaker and re-derives the
// health state, updating the obs gauges on transitions. After a failure
// it returns the backoff before the next attempt: the breaker's failure
// streak is the exponent.
func (r *runner) record(fetchErr error) (backoff time.Duration) {
	r.mu.Lock()
	if fetchErr == nil {
		r.br.Success()
	} else {
		r.lastError = fetchErr.Error()
		if r.br.Failure(time.Now()) {
			metBreakerOpens.Inc()
		}
		backoff = retry.Jitter(r.m.cfg.BackoffBase, r.m.cfg.BackoffCap, r.br.Failures()-1, r.rng.Int63n)
	}
	next := StateHealthy
	switch {
	case r.br.State() != retry.Closed:
		next = StateQuarantined
	case r.br.Failures() > 0:
		next = StateDegraded
	}
	changed := r.state != next
	r.state = next
	r.mu.Unlock()
	if changed {
		r.m.updateStateGauges()
	}
	return backoff
}

func (r *runner) setLastError(msg string) {
	r.mu.Lock()
	r.lastError = msg
	r.mu.Unlock()
}

// assignedStatus snapshots the runner for the cluster assignment API.
// durable is the last checkpointed cursor the manager holds for this
// source — the resume point a coordinator may hand to another worker.
func (r *runner) assignedStatus(durable string) AssignedStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return AssignedStatus{
		Source:   r.src,
		Cursor:   r.cursor,
		Durable:  durable,
		CaughtUp: r.caughtUp,
		Interim:  r.interim,
		State:    r.state,
	}
}

// cursorSnapshot returns the acknowledged cursor and caught-up flag.
func (r *runner) cursorSnapshot() (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cursor, r.caughtUp
}

// status snapshots the runner for /api/feeds.
func (r *runner) status() SourceStatus {
	r.mu.Lock()
	st := SourceStatus{
		Source:              r.src,
		State:               r.state,
		Breaker:             r.br.State().String(),
		Cursor:              r.cursor,
		CaughtUp:            r.caughtUp,
		ConsecutiveFailures: r.br.Failures(),
		LastError:           r.lastError,
		LastFetch:           r.lastFetch,
	}
	r.mu.Unlock()
	st.Fetches = r.fetches.Load()
	st.FetchErrors = r.fetchErrors.Load()
	st.Snippets = r.snippets.Load()
	st.Duplicates = r.duplicates.Load()
	st.Malformed = r.malformed.Load()
	st.IngestErrors = r.ingestErrors.Load()
	return st
}
