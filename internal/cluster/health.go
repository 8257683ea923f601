package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/retry"
)

// MemberState is a worker's health as the router reports it, read off
// the member's retry.Breaker (the same breaker a feed runner keeps per
// source):
//
//	closed, no failures   → ok
//	closed, failing       → suspect
//	open or half-open     → quarantined
//
// Failures come from two channels: the background prober, and passive
// signals from live scatter/ingest traffic (a failed shard request is
// a free probe). Passive signals move the breaker only while it is
// closed; only ProbeRound moves an open or half-open one. Readmission is
// therefore probe-only: a quarantined member must answer a deliberate
// half-open /healthz probe before it re-enters the scatter set, so a
// flapping worker cannot readmit itself off a single lucky response.
type MemberState int

const (
	MemberHealthy MemberState = iota
	MemberSuspect
	MemberQuarantined
)

func (s MemberState) String() string {
	switch s {
	case MemberSuspect:
		return "suspect"
	case MemberQuarantined:
		return "quarantined"
	default:
		return "ok"
	}
}

// MarshalJSON renders the state as its string form.
func (s MemberState) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// HealthConfig tunes the monitor. The zero value uses the defaults.
type HealthConfig struct {
	// ProbeInterval is the background probe period.
	ProbeInterval time.Duration // default 2s
	// ProbeTimeout bounds each health probe request.
	ProbeTimeout time.Duration // default 1s
	// FailThreshold is the number of consecutive failures (probe or
	// passive) that opens a member's breaker: quarantine.
	FailThreshold int // default 3
	// Cooldown is how long a quarantined member waits before the prober
	// grants it a half-open readmission probe. Routed ingest to a
	// quarantined owner answers 503 with the cooldown left as its
	// Retry-After.
	Cooldown time.Duration // default 10s
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * time.Second
	}
	return c
}

var (
	metQuarantines = obs.GetCounter("storypivot_cluster_quarantines_total",
		"member transitions into quarantine")
	metReadmissions = obs.GetCounter("storypivot_cluster_readmissions_total",
		"quarantined members readmitted by a half-open probe")
	metProbes = obs.GetCounter("storypivot_cluster_probes_total",
		"background health probes issued")
	metMembersQuarantined = obs.GetGauge("storypivot_cluster_members_quarantined",
		"members currently quarantined")
	metMembersSuspect = obs.GetGauge("storypivot_cluster_members_suspect",
		"members currently suspect (failing, below the quarantine threshold)")
)

// memberHealth is the monitor's per-member record.
type memberHealth struct {
	url       string
	br        retry.Breaker
	lastErr   string
	lastProbe time.Time

	// Per-member series, named with an inline label so the flat obs
	// registry exports them as one Prometheus family.
	errCounter *obs.Counter
	stateGauge *obs.Gauge
}

func (mh *memberHealth) state() MemberState {
	switch {
	case mh.br.State() != retry.Closed:
		return MemberQuarantined
	case mh.br.Failures() > 0:
		return MemberSuspect
	}
	return MemberHealthy
}

// MemberHealthView is the externally visible health snapshot of one
// member, served by the router's cached /healthz.
type MemberHealthView struct {
	Name                string      `json:"name"`
	State               MemberState `json:"state"`
	ConsecutiveFailures int         `json:"consecutive_failures,omitempty"`
	LastError           string      `json:"last_error,omitempty"`
	LastProbe           time.Time   `json:"last_probe,omitempty"`
}

// Monitor tracks member health for a router. All methods are safe for
// concurrent use; the probe loop runs under Router.Start.
type Monitor struct {
	cfg    HealthConfig
	client *Client
	// onChange is invoked (outside the lock) after a quarantine or
	// readmission transition; the router uses it to kick the feed
	// coordinator into an immediate reconcile.
	onChange func()

	mu      sync.Mutex
	members map[string]*memberHealth
	now     func() time.Time
}

func newMonitor(cfg HealthConfig, client *Client) *Monitor {
	return &Monitor{
		cfg:     cfg.withDefaults(),
		client:  client,
		members: make(map[string]*memberHealth),
		now:     time.Now,
	}
}

// SetNow overrides the clock (tests only).
func (mon *Monitor) SetNow(now func() time.Time) {
	mon.mu.Lock()
	mon.now = now
	mon.mu.Unlock()
}

// SetMembers reconciles the tracked set against a new member list. New
// members start healthy (optimistic until probed — the scatter path
// treats unknown as healthy too); removed members are dropped and their
// state gauge zeroed.
func (mon *Monitor) SetMembers(members []Member) {
	mon.mu.Lock()
	defer mon.mu.Unlock()
	keep := make(map[string]bool, len(members))
	for _, m := range members {
		keep[m.Name] = true
		if mh, ok := mon.members[m.Name]; ok {
			mh.url = m.URL
			continue
		}
		mon.members[m.Name] = &memberHealth{
			url: m.URL,
			br:  retry.Breaker{Threshold: mon.cfg.FailThreshold, Cooldown: mon.cfg.Cooldown},
			errCounter: obs.GetCounter(
				fmt.Sprintf("storypivot_cluster_shard_errors_total{member=%q}", m.Name),
				"shard requests that failed, by member"),
			stateGauge: obs.GetGauge(
				fmt.Sprintf("storypivot_cluster_member_state{member=%q}", m.Name),
				"member health state: 0 healthy, 1 suspect, 2 quarantined"),
		}
	}
	for name, mh := range mon.members {
		if !keep[name] {
			mh.stateGauge.Set(0)
			delete(mon.members, name)
		}
	}
	mon.refreshGaugesLocked()
}

// State returns a member's health state. Unknown members report
// healthy — the scatter path should try them rather than invent a
// verdict.
func (mon *Monitor) State(name string) MemberState {
	mon.mu.Lock()
	defer mon.mu.Unlock()
	if mh, ok := mon.members[name]; ok {
		return mh.state()
	}
	return MemberHealthy
}

// CooldownRemaining returns how long a quarantined member waits before
// its readmission probe: 0 when it is not quarantined or the probe is
// due.
func (mon *Monitor) CooldownRemaining(name string) time.Duration {
	mon.mu.Lock()
	defer mon.mu.Unlock()
	if mh, ok := mon.members[name]; ok {
		return mh.br.Remaining(mon.now())
	}
	return 0
}

// RecordSuccess feeds a passive success signal (a shard request that
// answered) into a closed breaker. It never readmits a quarantined
// member — that is the half-open probe's job.
func (mon *Monitor) RecordSuccess(name string) {
	mon.mu.Lock()
	defer mon.mu.Unlock()
	mh, ok := mon.members[name]
	if !ok || mh.br.State() != retry.Closed {
		return
	}
	prev := mh.state()
	mh.br.Success()
	mon.publishLocked(mh, prev)
}

// RecordFailure feeds a passive failure signal (a failed shard request)
// into the member's error series and, while it is closed, its breaker.
func (mon *Monitor) RecordFailure(name, reason string) {
	mon.mu.Lock()
	mh, ok := mon.members[name]
	tripped := ok && mon.failureLocked(mh, reason, mon.now(), true)
	mon.mu.Unlock()
	if tripped && mon.onChange != nil {
		mon.onChange()
	}
}

// failureLocked counts one failure against mh and, unless it is passive
// and the breaker is not closed, records it in the breaker at now. It
// reports a quarantine: the breaker tripped out of closed.
func (mon *Monitor) failureLocked(mh *memberHealth, reason string, now time.Time, passive bool) bool {
	mh.errCounter.Inc()
	mh.lastErr = reason
	prev := mh.state()
	if passive && prev == MemberQuarantined {
		return false
	}
	tripped := mh.br.Failure(now) && prev != MemberQuarantined
	if tripped {
		metQuarantines.Inc()
	}
	mon.publishLocked(mh, prev)
	return tripped
}

// publishLocked moves the state gauges when mh's state changed from
// prev.
func (mon *Monitor) publishLocked(mh *memberHealth, prev MemberState) {
	next := mh.state()
	if next == prev {
		return
	}
	mh.stateGauge.Set(int64(next))
	mon.refreshGaugesLocked()
}

func (mon *Monitor) refreshGaugesLocked() {
	var suspect, quarantined int64
	for _, mh := range mon.members {
		switch mh.state() {
		case MemberSuspect:
			suspect++
		case MemberQuarantined:
			quarantined++
		}
	}
	metMembersSuspect.Set(suspect)
	metMembersQuarantined.Set(quarantined)
}

// Snapshot returns every member's health view, sorted by name.
func (mon *Monitor) Snapshot() []MemberHealthView {
	mon.mu.Lock()
	out := make([]MemberHealthView, 0, len(mon.members))
	for name, mh := range mon.members {
		out = append(out, MemberHealthView{
			Name:                name,
			State:               mh.state(),
			ConsecutiveFailures: mh.br.Failures(),
			LastError:           mh.lastErr,
			LastProbe:           mh.lastProbe,
		})
	}
	mon.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// run is the background probe loop.
func (mon *Monitor) run(ctx context.Context) {
	t := time.NewTicker(mon.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			mon.ProbeRound(ctx)
		}
	}
}

// ProbeRound probes every member its breaker admits, synchronously
// (members in parallel): closed members always, quarantined members only
// past their cooldown, when the probe is the half-open readmission
// attempt. Exposed (via Router.ProbeNow) so tests drive the state
// machine deterministically.
func (mon *Monitor) ProbeRound(ctx context.Context) {
	type target struct{ name, url string }
	mon.mu.Lock()
	now := mon.now()
	targets := make([]target, 0, len(mon.members))
	for name, mh := range mon.members {
		if ok, _ := mh.br.Allow(now); ok {
			targets = append(targets, target{name: name, url: mh.url})
		}
	}
	mon.mu.Unlock()

	var wg sync.WaitGroup
	results := make([]string, len(targets)) // "" = success, else failure reason
	for i, tg := range targets {
		wg.Add(1)
		go func(i int, tg target) {
			defer wg.Done()
			results[i] = mon.probe(ctx, tg.url)
		}(i, tg)
	}
	wg.Wait()

	changed := false
	mon.mu.Lock()
	for i, tg := range targets {
		mh, ok := mon.members[tg.name]
		if !ok {
			continue
		}
		mh.lastProbe = now
		if results[i] != "" {
			changed = mon.failureLocked(mh, results[i], now, false) || changed
			continue
		}
		prev := mh.state()
		if mh.br.Success() {
			metReadmissions.Inc()
			changed = true
		}
		mon.publishLocked(mh, prev)
	}
	mon.mu.Unlock()
	if changed && mon.onChange != nil {
		mon.onChange()
	}
}

// probe issues one health probe; "" means the member is serviceable.
// A 503 whose body says "quarantined" counts as alive: that is the
// worker reporting its *feed sources* are quarantined (an upstream
// problem moving the runners would not fix), while "draining"/"closed"
// mean the process is going away and its feeds should move now.
func (mon *Monitor) probe(ctx context.Context, url string) string {
	pctx, cancel := context.WithTimeout(ctx, mon.cfg.ProbeTimeout)
	defer cancel()
	metProbes.Inc()
	status, body, err := mon.client.Get(pctx, url, "/healthz", nil)
	if err != nil {
		return err.Error()
	}
	if status == http.StatusOK {
		return ""
	}
	var hv struct {
		Status string `json:"status"`
	}
	if status == http.StatusServiceUnavailable && json.Unmarshal(body, &hv) == nil && hv.Status == "quarantined" {
		return ""
	}
	return fmt.Sprintf("healthz status %d", status)
}
