package feed

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"sync"

	"repro/internal/retry"
	"repro/internal/storage"
)

// Manager owns the feed runners, the dead-letter queue, and the cursor
// checkpoints. Lifecycle: NewManager → Add fetchers → Start → (serve) →
// Close. Close stops the runners, waits until each has finished the
// record in its hands, writes a final cursor checkpoint, and only then
// returns — the drain ordering the server relies on.
type Manager struct {
	cfg  Config
	sink Sink
	dlq  *storage.DLQ

	ctx    context.Context
	cancel context.CancelFunc

	runnerWG sync.WaitGroup
	loopWG   sync.WaitGroup

	// assignMu serialises Assign calls (the coordinator's reconcile
	// PUTs) so overlapping reconfigurations cannot interleave their
	// stop/start phases.
	assignMu sync.Mutex

	mu       sync.Mutex
	runners  []*runner
	cursors  map[string]cursorEntry // restored from CursorPath at New
	lastCkpt map[string]cursorEntry // last durably checkpointed cursors
	started  bool
	closing  bool
	closed   bool
}

// ErrManagerState reports a lifecycle misuse (Add after Start, double
// Start, Close before Start, ...).
var ErrManagerState = errors.New("feed: invalid manager lifecycle")

// cursorFile is the persisted resume state, one entry per source.
type cursorFile struct {
	Version int                    `json:"version"`
	Sources map[string]cursorEntry `json:"sources"`
}

type cursorEntry struct {
	Cursor   string `json:"cursor"`
	CaughtUp bool   `json:"caught_up"`
}

const cursorVersion = 1

// NewManager creates a manager ingesting into sink. When cfg.DLQDir is
// set the dead-letter queue is opened (and replayed) immediately; when
// cfg.CursorPath is set, previously checkpointed cursors are restored
// so Added fetchers resume where the last run acknowledged.
func NewManager(sink Sink, cfg Config) (*Manager, error) {
	if sink == nil {
		return nil, errors.New("feed: nil sink")
	}
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:     cfg,
		sink:    sink,
		cursors: make(map[string]cursorEntry),
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	if cfg.DLQDir != "" {
		dlq, err := storage.OpenDLQ(cfg.DLQDir)
		if err != nil {
			return nil, fmt.Errorf("feed: opening DLQ: %w", err)
		}
		m.dlq = dlq
	}
	if cfg.CursorPath != "" {
		if err := m.loadCursors(); err != nil {
			if m.dlq != nil {
				m.dlq.Close()
			}
			return nil, err
		}
	}
	// Restored cursors are by definition durable: they were read from
	// the checkpoint file this process will keep appending to.
	m.lastCkpt = make(map[string]cursorEntry, len(m.cursors))
	for src, ce := range m.cursors {
		m.lastCkpt[src] = ce
	}
	return m, nil
}

// loadCursors restores the cursor file; a missing file is a fresh
// start, a corrupt one is an error (losing cursors silently would
// silently re-ingest everything — at-least-once makes that *safe*, but
// the operator should know).
func (m *Manager) loadCursors() error {
	f, err := os.Open(m.cfg.CursorPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("feed: opening cursor file: %w", err)
	}
	defer f.Close()
	var cf cursorFile
	if err := json.NewDecoder(f).Decode(&cf); err != nil {
		return fmt.Errorf("feed: decoding cursor file: %w", err)
	}
	if cf.Version != cursorVersion {
		return fmt.Errorf("feed: unsupported cursor file version %d", cf.Version)
	}
	if cf.Sources != nil {
		m.cursors = cf.Sources
	}
	return nil
}

// Add registers a fetcher. All fetchers must be added before Start.
// The runner resumes from the source's restored cursor, if any.
func (m *Manager) Add(f Fetcher) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return fmt.Errorf("%w: Add after Start", ErrManagerState)
	}
	src := string(f.Source())
	for _, r := range m.runners {
		if r.src == src {
			return fmt.Errorf("feed: duplicate source %q", src)
		}
	}
	m.addRunnerLocked(f, m.cursors[src].Cursor)
	return nil
}

// addRunnerLocked builds the runner for f resuming at cursor and
// registers it. Runner i draws its backoff jitter from seed 1+i, so the
// retry timing of a given fetcher set is reproducible. Caller holds m.mu.
func (m *Manager) addRunnerLocked(f Fetcher, cursor string) *runner {
	r := &runner{
		m:      m,
		f:      f,
		src:    string(f.Source()),
		rng:    rand.New(rand.NewSource(1 + int64(len(m.runners)))),
		br:     retry.Breaker{Threshold: m.cfg.BreakerThreshold, Cooldown: m.cfg.BreakerCooldown},
		cursor: cursor,
		state:  StateHealthy,
	}
	m.runners = append(m.runners, r)
	return r
}

// Start launches one runner per fetcher and the periodic checkpoint loop.
func (m *Manager) Start() error {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return fmt.Errorf("%w: double Start", ErrManagerState)
	}
	m.started = true
	for _, r := range m.runners {
		m.startRunnerLocked(r)
	}
	if m.cfg.CheckpointEvery > 0 {
		m.loopWG.Add(1)
		go m.checkpointLoop()
	}
	// Gauge refresh happens outside m.mu: it reads runner state through
	// Status, which takes the lock itself.
	m.mu.Unlock()
	m.updateStateGauges()
	return nil
}

// startRunnerLocked launches one runner goroutine with its own
// cancellable context nested inside the manager's, so Assign can stop
// it individually while Close still stops everything at once. Caller
// holds m.mu.
func (m *Manager) startRunnerLocked(r *runner) {
	rctx, cancel := context.WithCancel(m.ctx)
	r.cancel = cancel
	r.done = make(chan struct{})
	m.runnerWG.Add(1)
	go func() {
		defer close(r.done)
		r.run(rctx)
	}()
}

// deadLetter persists one record to the DLQ (no-op without one).
func (m *Manager) deadLetter(r *runner, raw []byte, reason string) {
	if m.dlq == nil {
		return
	}
	cursor, _ := r.cursorSnapshot()
	if err := m.dlq.Append(storage.DLQEntry{
		Source: r.src,
		Cursor: cursor,
		Reason: reason,
		Raw:    raw,
	}); err != nil {
		r.setLastError("dlq append: " + err.Error())
	}
}

// Checkpoint persists the sink's checkpoint (when it has one) and then
// the feed cursors, in that order: the cursor file must never be newer
// than the pipeline state it presumes. Cursors only ever cover
// acknowledged records, so a crash between the two costs a bounded
// redelivery, never a loss.
//
// A FAILED sink checkpoint skips the cursor write entirely. Advancing
// cursors past pipeline state that was never persisted would invert the
// ordering above: under story retirement, records whose stories were
// evicted mid-drain would be acknowledged by a cursor while the only
// durable trace of them is an archive the stale on-disk checkpoint does
// not reference — a crash then loses them for good. Keeping the old
// cursors costs a redelivery instead.
func (m *Manager) Checkpoint() error {
	var errs []error
	if cp, ok := m.sink.(Checkpointer); ok {
		if err := cp.WriteCheckpoint(); err != nil {
			errs = append(errs, fmt.Errorf("feed: sink checkpoint: %w", err))
			return errors.Join(errs...)
		}
	}
	if m.cfg.CursorPath != "" {
		cf := cursorFile{Version: cursorVersion, Sources: make(map[string]cursorEntry)}
		m.mu.Lock()
		// Carry over restored cursors for sources not (re-)added this
		// run, so a partial fetcher set does not erase siblings' state.
		for src, ce := range m.cursors {
			cf.Sources[src] = ce
		}
		runners := append([]*runner(nil), m.runners...)
		m.mu.Unlock()
		for _, r := range runners {
			c, cu := r.cursorSnapshot()
			cf.Sources[r.src] = cursorEntry{Cursor: c, CaughtUp: cu}
		}
		if err := storage.AtomicWrite(m.cfg.CursorPath, func(w io.Writer) error {
			return json.NewEncoder(w).Encode(&cf)
		}); err != nil {
			errs = append(errs, fmt.Errorf("feed: writing cursors: %w", err))
		} else {
			metCheckpoints.Inc()
			// Remember what just became durable: these are the cursors a
			// coordinator may safely hand to another worker, because a
			// crash-restart of this process resumes from exactly here.
			m.mu.Lock()
			for src, ce := range cf.Sources {
				m.lastCkpt[src] = ce
			}
			m.mu.Unlock()
		}
	}
	return errors.Join(errs...)
}

// checkpointLoop checkpoints on the configured period until shutdown.
func (m *Manager) checkpointLoop() {
	defer m.loopWG.Done()
	for retry.Sleep(m.ctx, m.cfg.CheckpointEvery) {
		m.Checkpoint()
	}
}

// Close drains and stops the subsystem: runners stop fetching and finish
// the record in their hands, a final checkpoint persists the cursors
// (and the sink's checkpoint), and the DLQ closes. Idempotent in effect;
// second and later calls return ErrManagerState.
func (m *Manager) Close() error { return m.shutdown(true) }

// Abort stops the subsystem like a crash would: runners stop (what they
// acknowledged stays in the sink), but NO final checkpoint is written —
// the durable cursor stays wherever the last periodic checkpoint left
// it. Chaos tests and kill drills use this to exercise the restart path
// the sink-first checkpoint ordering exists for; production shutdown
// should use Close.
func (m *Manager) Abort() error { return m.shutdown(false) }

// shutdown is Close (checkpoint set) and Abort: stop the runners,
// optionally write the final checkpoint, close the DLQ.
func (m *Manager) shutdown(checkpoint bool) error {
	m.mu.Lock()
	if m.closed || m.closing {
		m.mu.Unlock()
		return fmt.Errorf("%w: already closed", ErrManagerState)
	}
	m.closing = true
	started := m.started
	m.mu.Unlock()

	m.cancel()
	if started {
		m.runnerWG.Wait()
		m.loopWG.Wait()
	}
	var err error
	if checkpoint {
		err = m.Checkpoint()
	}
	if m.dlq != nil {
		if cerr := m.dlq.Close(); cerr != nil && !errors.Is(cerr, storage.ErrClosed) {
			err = errors.Join(err, cerr)
		}
	}
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.updateStateGauges()
	return err
}

// Draining reports that Close has begun (or finished); /healthz flips
// to 503 on this signal so load balancers stop routing to a process
// that is on its way out.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closing
}

// Status returns per-source runner snapshots, sorted by source name.
func (m *Manager) Status() []SourceStatus {
	m.mu.Lock()
	runners := append([]*runner(nil), m.runners...)
	m.mu.Unlock()
	out := make([]SourceStatus, 0, len(runners))
	for _, r := range runners {
		out = append(out, r.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// StateCounts tallies sources per health state.
func (m *Manager) StateCounts() (healthy, degraded, quarantined int) {
	for _, st := range m.Status() {
		switch st.State {
		case StateQuarantined:
			quarantined++
		case StateDegraded:
			degraded++
		default:
			healthy++
		}
	}
	return
}

// CaughtUp reports that every runner has drained its source — the
// "replay finished" condition for batch demos and tests. A runner is
// caught up only once its last batch was acknowledged.
func (m *Manager) CaughtUp() bool {
	sts := m.Status()
	for _, st := range sts {
		if !st.CaughtUp {
			return false
		}
	}
	return len(sts) > 0
}

// DLQ exposes the dead-letter queue (nil when not configured).
func (m *Manager) DLQ() *storage.DLQ { return m.dlq }

// updateStateGauges recomputes the per-state source gauges.
func (m *Manager) updateStateGauges() {
	h, d, q := m.StateCounts()
	metHealthy.Set(int64(h))
	metDegraded.Set(int64(d))
	metQuarantined.Set(int64(q))
}
