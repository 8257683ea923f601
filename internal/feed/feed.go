// Package feed is StoryPivot's resilient continuous-ingest subsystem:
// it pulls snippets from pluggable per-source Fetchers and drives them
// into the pipeline through isolated per-source runner goroutines.
//
// The paper's deployment consumed live EventRegistry/GDELT feeds from
// 50 sources over six months; at that scale individual sources flap,
// stall, and emit garbage as a matter of course. Each runner therefore
// gets the full production-robustness kit:
//
//   - retry with exponential backoff and full jitter, plus a per-fetch
//     timeout, so a slow or erroring source costs only itself;
//   - a circuit breaker (closed → open → half-open probe) so a
//     persistently failing source is quarantined without stalling its
//     siblings, and re-admitted by a single cheap probe;
//   - a health state machine (healthy / degraded / quarantined)
//     exported via obs gauges and GET /api/feeds;
//   - ingest in fetch order: a runner hands its own batch to the
//     pipeline record by record and fetches again only once the batch
//     is acknowledged, so it never holds more than one batch;
//   - a dead-letter queue for malformed or unacceptable records, so one
//     poison record never sinks its batch;
//   - per-source resume cursors checkpointed atomically alongside the
//     pipeline checkpoint, giving at-least-once delivery across
//     restarts with engine-level dedup collapsing the redeliveries.
package feed

import (
	"context"
	"time"

	"repro/internal/event"
)

// Batch is one fetch result: decoded snippets, records that failed to
// decode (destined for the dead-letter queue), and the cursor that
// resumes the stream *after* this batch.
type Batch struct {
	Snippets []*event.Snippet
	// Malformed holds fetched records that could not be decoded into
	// snippets. They are acknowledged like snippets (the cursor moves
	// past them) but persisted to the DLQ instead of the pipeline.
	Malformed []Malformed
	// Next is the opaque resume cursor positioned after this batch. The
	// runner adopts it only once every record of the batch has been
	// acknowledged (ingested, a duplicate, or dead-lettered), so a
	// persisted cursor never claims unacknowledged data.
	Next string
	// Done reports that the fetcher is caught up: there was no more
	// data at Next when the fetch returned. Runners keep polling a
	// caught-up source at Config.PollInterval (live feeds grow).
	Done bool
}

// Malformed is one undecodable fetched record.
type Malformed struct {
	Raw    []byte
	Reason string
}

// Fetcher pulls records for one source. Implementations must be safe
// for use from a single runner goroutine; Fetch is never called
// concurrently for the same fetcher. A Fetch that returns an error (or
// panics — the runner contains it) is retried with backoff and counts
// toward the circuit breaker.
type Fetcher interface {
	// Source names the feed; it doubles as the cursor key and should be
	// stable across restarts.
	Source() event.SourceID
	// Fetch returns up to limit records starting at cursor ("" = start
	// of stream). It must honour ctx cancellation.
	Fetch(ctx context.Context, cursor string, limit int) (Batch, error)
}

// Sink receives acknowledged snippets. *storypivot.Pipeline satisfies
// it directly.
type Sink interface {
	Ingest(*event.Snippet) error
}

// Checkpointer is optionally implemented by a Sink (the pipeline is
// one). When present, the manager persists the sink's checkpoint
// immediately before the feed cursors, so the cursor file is always
// paired with a pipeline state at least as new as it claims.
type Checkpointer interface {
	WriteCheckpoint() error
}

// Settler is optionally implemented by a Sink whose readers see only what
// a settle published (a server's pipeline). When present, a runner
// settles the sink once each batch is acknowledged and before its cursor
// advances, so every record a cursor covers is already visible. A
// count-triggered settle (storypivot.WithAutoAlign) cannot stand in: it
// would leave the tail of a batch invisible until more records arrive.
type Settler interface {
	Settle()
}

// Config tunes the manager and its runners. The zero value is usable;
// every field falls back to the default below.
type Config struct {
	// BackoffBase and BackoffCap bound the exponential retry backoff:
	// after the n-th consecutive failure (the breaker's streak) the
	// runner sleeps uniform in [0, min(Cap, Base·2ⁿ⁻¹)] (retry.Jitter),
	// runner i drawing from seed 1+i.
	BackoffBase time.Duration // default 100ms
	BackoffCap  time.Duration // default 30s

	// BreakerThreshold is the number of consecutive fetch failures that
	// opens a source's circuit breaker (retry.Breaker); BreakerCooldown
	// is how long the breaker stays open before admitting a half-open
	// probe.
	BreakerThreshold int           // default 5
	BreakerCooldown  time.Duration // default 30s

	// FetchTimeout bounds each Fetch call.
	FetchTimeout time.Duration // default 10s

	// BatchSize is the per-fetch record limit passed to Fetch, and so
	// the most records a runner holds at once.
	BatchSize int // default 64

	// PollInterval is how long a caught-up runner sleeps before polling
	// its source again.
	PollInterval time.Duration // default 500ms

	// CursorPath, when set, persists per-source resume cursors there
	// (atomically, fsynced) and restores them at NewManager.
	CursorPath string

	// DLQDir, when set, opens a dead-letter queue there for malformed
	// records and snippets the sink permanently rejects.
	DLQDir string

	// CheckpointEvery, when > 0, checkpoints cursors (and the sink, if
	// it implements Checkpointer) on that period while running. A final
	// checkpoint always happens during Close.
	CheckpointEvery time.Duration

	// SpecFetcher builds Fetchers for Assign specs whose Type the feed
	// package does not know natively ("ndjson" is built in). Required
	// only when the manager receives cluster feed assignments of other
	// types (the cmd layer injects the "replay" builder here).
	SpecFetcher SpecFetcher
}

func (c Config) withDefaults() Config {
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 30 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 10 * time.Second
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	return c
}

// State is a source's health classification.
type State string

const (
	// StateHealthy: recent fetches succeed.
	StateHealthy State = "healthy"
	// StateDegraded: the source is failing and retrying with backoff,
	// but the breaker has not tripped.
	StateDegraded State = "degraded"
	// StateQuarantined: the breaker is open (or probing half-open); the
	// runner touches the source at most once per cooldown.
	StateQuarantined State = "quarantined"
)

// SourceStatus is the externally visible state of one runner, served
// by GET /api/feeds.
type SourceStatus struct {
	Source              string    `json:"source"`
	State               State     `json:"state"`
	Breaker             string    `json:"breaker"`
	Cursor              string    `json:"cursor"`
	CaughtUp            bool      `json:"caught_up"`
	Fetches             uint64    `json:"fetches"`
	FetchErrors         uint64    `json:"fetch_errors"`
	ConsecutiveFailures int       `json:"consecutive_failures"`
	Snippets            uint64    `json:"snippets"`
	Duplicates          uint64    `json:"duplicates"`
	Malformed           uint64    `json:"malformed"`
	IngestErrors        uint64    `json:"ingest_errors"`
	LastError           string    `json:"last_error,omitempty"`
	LastFetch           time.Time `json:"last_fetch,omitempty"`
}
