package feed

import (
	"fmt"
	"sort"

	"repro/internal/event"
)

// Assign reconciles the manager's cluster-assigned runners against the
// desired list: runners for sources no longer assigned here are stopped
// (between records — a cut batch leaves the cursor where it was — and
// their final cursor checkpointed), new assignments are started at the
// requested cursor, and unchanged assignments keep running untouched.
// Statically Added fetchers are never touched; a desired source that
// collides with one is an error.
//
// Interim tenures get the inverse treatment on withdrawal: instead of a
// drain-and-checkpoint, the tenure's ingested data is deleted from the
// sink (SourceRemover) and its cursors forgotten, because the returning
// ring owner re-ingests the same records from its own durable cursor —
// two copies would otherwise both be visible once the owner is back in
// the scatter set.
//
// Assign is idempotent: re-sending the current assignment is a no-op
// that just reports runner state, which the coordinator uses as its
// cursor observation channel.
func (m *Manager) Assign(assignments []Assignment) (AssignResult, error) {
	m.assignMu.Lock()
	defer m.assignMu.Unlock()

	desired := make(map[string]Assignment, len(assignments))
	for _, a := range assignments {
		if a.Spec.Source == "" {
			return AssignResult{}, fmt.Errorf("feed: assignment with empty source")
		}
		if _, dup := desired[a.Spec.Source]; dup {
			return AssignResult{}, fmt.Errorf("feed: duplicate assignment for source %q", a.Spec.Source)
		}
		desired[a.Spec.Source] = a
	}

	m.mu.Lock()
	if !m.started || m.closing || m.closed {
		m.mu.Unlock()
		return AssignResult{}, fmt.Errorf("%w: Assign outside Start..Close", ErrManagerState)
	}
	var stops []*runner
	running := make(map[string]*runner)
	for _, r := range m.runners {
		if !r.assigned {
			if _, clash := desired[r.src]; clash {
				m.mu.Unlock()
				return AssignResult{}, fmt.Errorf("feed: source %q already has a static fetcher", r.src)
			}
			continue
		}
		a, keep := desired[r.src]
		if keep && a.Spec == r.spec {
			running[r.src] = r
			continue
		}
		// Removed here, or respecified: stop (a spec change restarts).
		stops = append(stops, r)
	}
	m.mu.Unlock()

	// Build every new fetcher before stopping anything, so a malformed
	// assignment rejects the whole PUT instead of half-applying it.
	starts := make(map[string]Fetcher)
	var startOrder []string
	for src, a := range desired {
		if _, ok := running[src]; ok {
			continue
		}
		f, err := m.buildFetcher(a.Spec)
		if err != nil {
			return AssignResult{}, err
		}
		starts[src] = f
		startOrder = append(startOrder, src)
	}
	sort.Strings(startOrder)

	res := AssignResult{Stopped: make(map[string]string)}
	for _, r := range stops {
		r.cancel()
		<-r.done
		cursor, caughtUp := r.cursorSnapshot()
		wasInterim := r.interimSnapshot()
		m.mu.Lock()
		for i, rr := range m.runners {
			if rr == r {
				m.runners = append(m.runners[:i], m.runners[i+1:]...)
				break
			}
		}
		if wasInterim {
			delete(m.cursors, r.src)
			delete(m.lastCkpt, r.src)
		} else {
			m.cursors[r.src] = cursorEntry{Cursor: cursor, CaughtUp: caughtUp}
		}
		m.mu.Unlock()
		if wasInterim {
			if rem, ok := m.sink.(SourceRemover); ok {
				rem.RemoveSource(event.SourceID(r.src))
			}
			metInterimDrops.Inc()
			res.Dropped = append(res.Dropped, r.src)
		} else {
			res.Stopped[r.src] = cursor
		}
		metAssignStops.Inc()
	}
	if len(stops) > 0 {
		// The drain contract: a withdrawn source's final cursor (and the
		// interim deletions) are durable before the coordinator hears
		// about them and hands the source to someone else.
		m.Checkpoint()
	}

	for _, src := range startOrder {
		a := desired[src]
		m.mu.Lock()
		cursor := a.Cursor
		if cursor == "" {
			cursor = m.cursors[src].Cursor
		}
		r := m.addRunnerLocked(starts[src], cursor)
		r.assigned, r.spec, r.interim = true, a.Spec, a.Interim
		m.startRunnerLocked(r)
		m.mu.Unlock()
		metAssignStarts.Inc()
	}

	// Unchanged runners may still flip interim ↔ owner in place (a
	// membership change can make the covering member the ring owner,
	// legitimising its tenure without a restart).
	for src, r := range running {
		r.setInterim(desired[src].Interim)
	}

	res.Running = m.Assigned()
	m.updateAssignGauge()
	return res, nil
}

// Assigned snapshots the cluster-assigned runners, sorted by source.
func (m *Manager) Assigned() []AssignedStatus {
	m.mu.Lock()
	runners := make([]*runner, 0, len(m.runners))
	durable := make(map[string]string, len(m.runners))
	for _, r := range m.runners {
		if r.assigned {
			runners = append(runners, r)
			durable[r.src] = m.lastCkpt[r.src].Cursor
		}
	}
	m.mu.Unlock()
	out := make([]AssignedStatus, 0, len(runners))
	for _, r := range runners {
		out = append(out, r.assignedStatus(durable[r.src]))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

func (m *Manager) updateAssignGauge() {
	m.mu.Lock()
	n := 0
	for _, r := range m.runners {
		if r.assigned {
			n++
		}
	}
	m.mu.Unlock()
	metAssigned.Set(int64(n))
}

func (r *runner) interimSnapshot() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.interim
}

func (r *runner) setInterim(v bool) {
	r.mu.Lock()
	r.interim = v
	r.mu.Unlock()
}
