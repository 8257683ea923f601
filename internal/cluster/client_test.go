package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientHedging pins the hedge contract on a slow-then-fast pair:
// the stalled first request triggers exactly one hedge, the hedge's
// response wins and is returned byte-for-byte, and the losing in-flight
// request is cancelled rather than left running to completion.
func TestClientHedging(t *testing.T) {
	const fastBody = `{"total":7,"offset":0,"limit":1,"results":[{"id":1}]}`
	hedgesBefore := metShardHedges.Value()
	var calls atomic.Int64
	loserCancelled := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// First request stalls until its context dies; if it ever
			// completes normally the cancel contract is broken.
			select {
			case <-r.Context().Done():
				close(loserCancelled)
			case <-time.After(10 * time.Second):
				t.Error("losing request ran to completion")
			}
			return
		}
		w.Write([]byte(fastBody))
	}))
	defer ts.Close()

	c := NewClient(ClientConfig{Timeout: 10 * time.Second, HedgeAfter: 20 * time.Millisecond})
	status, body, err := c.Get(context.Background(), ts.URL, "/page", nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if string(body) != fastBody {
		t.Fatalf("winner bytes not returned verbatim: %q", body)
	}
	if got := metShardHedges.Value() - hedgesBefore; got != 1 {
		t.Fatalf("hedge counter moved by %d, want 1", got)
	}
	select {
	case <-loserCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("losing request was not cancelled")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("%d requests issued, want 2", got)
	}
}

// TestHealthMonitorStateMachine drives the member state machine through
// quarantine and half-open readmission, asserting the per-member
// metrics track every transition.
func TestHealthMonitorStateMachine(t *testing.T) {
	var mode atomic.Value // "ok" | "err" | "quarantined" | "draining"
	mode.Store("ok")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load().(string) {
		case "ok":
			w.Write([]byte(`{"status":"ok"}`))
		case "err":
			http.Error(w, "boom", http.StatusInternalServerError)
		case "quarantined":
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"status":"quarantined"}`))
		case "draining":
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"status":"draining"}`))
		}
	}))
	defer ts.Close()

	const name = "hm-w0"
	mon := newMonitor(HealthConfig{
		FailThreshold: 2,
		Cooldown:      60 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
	}, NewClient(ClientConfig{Timeout: 2 * time.Second}))
	mon.SetMembers([]Member{{Name: name, URL: ts.URL}})
	clock := time.Unix(1000, 0)
	mon.SetNow(func() time.Time { return clock })
	ctx := context.Background()

	stateGauge := func() int64 {
		mon.mu.Lock()
		defer mon.mu.Unlock()
		return mon.members[name].stateGauge.Value()
	}
	errCounter := func() uint64 {
		mon.mu.Lock()
		defer mon.mu.Unlock()
		return mon.members[name].errCounter.Value()
	}
	errsBefore := errCounter()
	quarBefore := metQuarantines.Value()
	readmitBefore := metReadmissions.Value()

	if mon.State(name) != MemberHealthy {
		t.Fatal("new member not healthy")
	}
	mon.ProbeRound(ctx)
	if mon.State(name) != MemberHealthy || stateGauge() != 0 {
		t.Fatal("healthy probe changed state")
	}

	// A worker whose *feed sources* are breaker-quarantined answers 503
	// {"status":"quarantined"} — that is an upstream problem, not a dead
	// worker; the probe must count it alive.
	mode.Store("quarantined")
	mon.ProbeRound(ctx)
	if mon.State(name) != MemberHealthy {
		t.Fatal("feed-level 503 treated as member failure")
	}

	// Real failures: passive signal then probe → threshold 2 → quarantine.
	mode.Store("err")
	mon.RecordFailure(name, "shard status 500")
	if mon.State(name) != MemberSuspect || stateGauge() != 1 {
		t.Fatalf("after 1 failure: state %v gauge %d", mon.State(name), stateGauge())
	}
	mon.ProbeRound(ctx)
	if mon.State(name) != MemberQuarantined || stateGauge() != 2 {
		t.Fatalf("after 2 failures: state %v gauge %d", mon.State(name), stateGauge())
	}
	if got := errCounter() - errsBefore; got != 2 {
		t.Fatalf("per-member error counter moved by %d, want 2", got)
	}
	if metQuarantines.Value() != quarBefore+1 {
		t.Fatal("quarantine counter did not move")
	}

	// Passive successes must NOT readmit a quarantined member.
	mode.Store("ok")
	mon.RecordSuccess(name)
	if mon.State(name) != MemberQuarantined {
		t.Fatal("passive success readmitted a quarantined member")
	}
	// Neither does a probe inside the cooldown (it is skipped entirely).
	mon.ProbeRound(ctx)
	if mon.State(name) != MemberQuarantined {
		t.Fatal("probe inside cooldown readmitted")
	}

	// A failed half-open probe restarts the cooldown.
	mode.Store("draining")
	clock = clock.Add(80 * time.Millisecond)
	mon.ProbeRound(ctx)
	if mon.State(name) != MemberQuarantined {
		t.Fatal("draining 503 readmitted")
	}
	// The failed probe extends the streak, as a feed runner's does.
	if v := mon.Snapshot()[0]; v.ConsecutiveFailures != 3 {
		t.Fatalf("consecutive failures after a failed probe = %d, want 3", v.ConsecutiveFailures)
	}

	// Past the (restarted) cooldown, a successful half-open probe
	// readmits.
	mode.Store("ok")
	clock = clock.Add(80 * time.Millisecond)
	mon.ProbeRound(ctx)
	if mon.State(name) != MemberHealthy || stateGauge() != 0 {
		t.Fatalf("half-open probe did not readmit: state %v gauge %d", mon.State(name), stateGauge())
	}
	if metReadmissions.Value() != readmitBefore+1 {
		t.Fatal("readmission counter did not move")
	}

	// Members removed from the ring stop being tracked.
	mon.SetMembers(nil)
	if len(mon.Snapshot()) != 0 {
		t.Fatal("removed member still tracked")
	}
}

// TestIngestRetryAfterFollowsCooldown: a routed ingest to a quarantined
// owner answers 503 with the owner's remaining cooldown as Retry-After —
// rounded up, at least 1s — read at instants of an injected clock.
func TestIngestRetryAfterFollowsCooldown(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer owner.Close()
	rt, err := NewRouter(Config{
		Members: []Member{{Name: "w0", URL: owner.URL}},
		Health:  HealthConfig{FailThreshold: 1, Cooldown: 10 * time.Second},
		Ingest:  IngestConfig{RetryBase: time.Millisecond, RetryCap: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1000, 0)
	rt.Health().SetNow(func() time.Time { return clock })
	h := rt.Handler()
	retryAfter := func() string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/documents", strings.NewReader(`{"source":"s"}`)))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("ingest to a quarantined owner: %d %s", rec.Code, rec.Body)
		}
		return rec.Header().Get("Retry-After")
	}

	// The first POST fails at the owner and trips its breaker: the whole
	// cooldown is left.
	if got := retryAfter(); got != "10" {
		t.Fatalf("Retry-After at the trip = %q, want 10", got)
	}
	clock = clock.Add(6500 * time.Millisecond)
	if got := retryAfter(); got != "4" {
		t.Fatalf("Retry-After with 3.5s of cooldown left = %q, want 4", got)
	}
	// Past the cooldown the probe is due, but the member stays quarantined
	// until it answers one.
	clock = clock.Add(time.Minute)
	if got := retryAfter(); got != "1" {
		t.Fatalf("Retry-After past the cooldown = %q, want 1", got)
	}
}

// TestRingOwnerIndexAmong pins the failover placement walk: ineligible
// members are skipped clockwise, pins hold only while their target is
// eligible, and an all-ineligible ring yields -1.
func TestRingOwnerIndexAmong(t *testing.T) {
	members := []Member{
		{Name: "w0", URL: "http://h:1"},
		{Name: "w1", URL: "http://h:2"},
		{Name: "w2", URL: "http://h:3"},
	}
	r, err := NewRing(members, map[string]string{"pinned": "w1"})
	if err != nil {
		t.Fatal(err)
	}
	all := func(int) bool { return true }
	for _, src := range []string{"a", "b", "c", "pinned"} {
		if got, want := r.OwnerIndexAmong(src, all), r.OwnerIndex(src); got != want {
			t.Fatalf("%s: all-eligible disagrees with OwnerIndex: %d != %d", src, got, want)
		}
	}
	// Excluding the natural owner moves the source elsewhere, and every
	// source still lands somewhere.
	for _, src := range []string{"a", "b", "c", "x", "y", "z"} {
		own := r.OwnerIndex(src)
		got := r.OwnerIndexAmong(src, func(i int) bool { return i != own })
		if got == own || got < 0 {
			t.Fatalf("%s: failover owner %d (natural %d)", src, got, own)
		}
	}
	// A pinned source follows the pin only while the pin is eligible.
	if got := r.OwnerIndexAmong("pinned", all); got != 1 {
		t.Fatalf("pin ignored: %d", got)
	}
	if got := r.OwnerIndexAmong("pinned", func(i int) bool { return i != 1 }); got == 1 || got < 0 {
		t.Fatalf("ineligible pin placement: %d", got)
	}
	if got := r.OwnerIndexAmong("a", func(int) bool { return false }); got != -1 {
		t.Fatalf("all-ineligible ring returned %d, want -1", got)
	}
}
