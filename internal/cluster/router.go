package cluster

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/feed"
	"repro/internal/httpx"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/retry"
)

// Router is the scatter-gather front of a sharded deployment. It owns
// no pipeline: reads fan out to every worker and merge; ingest routes
// to the worker owning the document's source. Failed shards degrade the
// response (partial: true) instead of failing it — a reader losing one
// shard's stories is strictly more useful than a 502.
//
// The router is also the cluster's health authority: a background
// prober (plus passive signals from live traffic) classifies each
// member healthy/suspect/quarantined, scatters skip quarantined members
// without burning their shard timeout, and the feed coordinator moves
// quarantined members' feed runners to their ring successors. Start
// launches the background loops; a router that is never started still
// serves, updating health only from passive traffic signals.
type Router struct {
	client  *Client
	ring    atomic.Pointer[Ring]
	monitor *Monitor
	coord   *coordinator
	ingest  IngestConfig

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// IngestConfig tunes the failover behaviour of routed ingest
// (POST /api/documents). The zero value uses the defaults.
type IngestConfig struct {
	// Retries is how many times a failed ingest is retried against the
	// owner before giving up (attempts = Retries+1).
	Retries int // default 3
	// RetryBase/RetryCap bound the full-jitter backoff between retries
	// (retry.Jitter).
	RetryBase time.Duration // default 50ms
	RetryCap  time.Duration // default 2s
}

func (c IngestConfig) withDefaults() IngestConfig {
	if c.Retries <= 0 {
		c.Retries = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 2 * time.Second
	}
	return c
}

// Config assembles a router.
type Config struct {
	Members []Member
	// Pins maps source → member name, overriding hash placement.
	Pins   map[string]string
	Client ClientConfig
	// Health tunes the background member prober.
	Health HealthConfig
	// Ingest tunes routed-ingest retry behaviour.
	Ingest IngestConfig
	// Feeds are cluster-managed feed definitions: the coordinator starts
	// each source's runner on its ring owner and moves it on membership
	// change or quarantine.
	Feeds []feed.Spec
	// ReconcileInterval is the feed coordinator's steady-state period
	// (default 2s); health transitions trigger immediate reconciles.
	ReconcileInterval time.Duration
}

// NewRouter builds a router over the initial member list.
func NewRouter(cfg Config) (*Router, error) {
	ring, err := NewRing(cfg.Members, cfg.Pins)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		client: NewClient(cfg.Client),
		ingest: cfg.Ingest.withDefaults(),
	}
	rt.ring.Store(ring)
	rt.monitor = newMonitor(cfg.Health, rt.client)
	rt.monitor.SetMembers(cfg.Members)
	if len(cfg.Feeds) > 0 {
		rt.coord, err = newCoordinator(rt, cfg.Feeds, cfg.ReconcileInterval)
		if err != nil {
			return nil, err
		}
		rt.monitor.onChange = rt.coord.kick
	}
	return rt, nil
}

// Start launches the background health prober and (when feeds are
// configured) the feed coordinator. Close stops them.
func (rt *Router) Start() {
	if rt.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt.cancel = cancel
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		rt.monitor.run(ctx)
	}()
	if rt.coord != nil {
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			rt.coord.run(ctx)
		}()
	}
}

// Close stops the background loops started by Start.
func (rt *Router) Close() {
	if rt.cancel == nil {
		return
	}
	rt.cancel()
	rt.wg.Wait()
	rt.cancel = nil
}

// ProbeNow runs one synchronous health-probe round — the determinism
// hook for tests and for operators poking at a cluster.
func (rt *Router) ProbeNow(ctx context.Context) { rt.monitor.ProbeRound(ctx) }

// ReconcileNow runs one synchronous feed-reconcile round (no-op without
// configured feeds).
func (rt *Router) ReconcileNow(ctx context.Context) {
	if rt.coord != nil {
		rt.coord.reconcileRound(ctx)
	}
}

// Health returns the member health monitor.
func (rt *Router) Health() *Monitor { return rt.monitor }

// Ring returns the current ring snapshot.
func (rt *Router) Ring() *Ring { return rt.ring.Load() }

// scatterSet returns the members a fan-out should target: every member
// not currently quarantined. Skipping quarantined members keeps their
// shard timeout out of the critical path — the response is flagged
// partial instead. If everything is quarantined the full list comes
// back (trying known-bad members beats returning an empty page on a
// verdict that may be stale).
func (rt *Router) scatterSet() (members []Member, skipped bool) {
	all := rt.Ring().Members()
	alive := make([]Member, 0, len(all))
	for _, m := range all {
		if rt.monitor.State(m.Name) != MemberQuarantined {
			alive = append(alive, m)
		}
	}
	if len(alive) == 0 {
		return all, false
	}
	return alive, len(alive) < len(all)
}

// recordScatter feeds scatter outcomes to the health monitor: live
// traffic is a free probe.
func (rt *Router) recordScatter(members []Member, errs []error) {
	for i, m := range members {
		if errs[i] == nil || !shardDown(errs[i]) {
			rt.monitor.RecordSuccess(m.Name)
		} else {
			rt.monitor.RecordFailure(m.Name, errs[i].Error())
		}
	}
}

// shardDown reports whether a shard error means the worker itself is
// unhealthy (transport failure, timeout, or 5xx) as opposed to a
// request the worker rejected while perfectly alive (4xx).
func shardDown(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	return true
}

// Handler returns the router's HTTP handler with the always-on
// middleware (recovery, instrumentation), mirroring server.Handler.
func (rt *Router) Handler() http.Handler {
	return httpx.Chain(httpx.Instrument(), httpx.Recover())(rt.rawMux())
}

// HandlerWith wraps the routes in the full httpx production stack.
func (rt *Router) HandlerWith(cfg httpx.Config) http.Handler {
	return httpx.Wrap(rt.rawMux(), cfg)
}

func (rt *Router) rawMux() http.Handler {
	mux := http.NewServeMux()
	debug := obs.DebugMux()
	mux.Handle("GET /metrics", debug)
	mux.Handle("GET /debug/", debug)
	mux.HandleFunc("GET /api/search", func(w http.ResponseWriter, r *http.Request) {
		rt.handleRanked(w, r, "/api/search", "q")
	})
	mux.HandleFunc("GET /api/stories/by-entity", func(w http.ResponseWriter, r *http.Request) {
		rt.handleRanked(w, r, "/api/stories/by-entity", "entity")
	})
	mux.HandleFunc("GET /api/timeline", rt.handleTimeline)
	mux.HandleFunc("GET /api/documents", rt.handleDocuments)
	mux.HandleFunc("POST /api/documents", rt.handleAddDocument)
	mux.HandleFunc("POST /api/documents/select", rt.handleSelect)
	mux.HandleFunc("DELETE /api/documents", rt.handleRemoveDocument)
	mux.HandleFunc("GET /api/feeds", rt.handleFeeds)
	mux.HandleFunc("GET /api/cluster/members", rt.handleMembersGet)
	mux.HandleFunc("PUT /api/cluster/members", rt.handleMembersPut)
	mux.HandleFunc("GET /api/cluster/feeds", rt.handleFeedAssignments)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return mux
}

// scatter runs f once per member concurrently and collects the
// results; errs[i] != nil marks shard i failed.
func scatter[T any](ctx context.Context, members []Member, f func(ctx context.Context, m Member) (T, error)) ([]T, []error) {
	out := make([]T, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m Member) {
			defer wg.Done()
			out[i], errs[i] = f(ctx, m)
		}(i, m)
	}
	wg.Wait()
	return out, errs
}

// handleRanked serves the two score-ranked scatter endpoints
// (/api/search, /api/stories/by-entity). Global pagination: every shard
// is asked for its top offset+limit with scores, the router merges them
// under index.MergeRanked — the exact ordering the worker index uses —
// and splices the winning window's result bytes into its own envelope.
func (rt *Router) handleRanked(w http.ResponseWriter, r *http.Request, path, param string) {
	vals := r.URL.Query()
	qv := vals.Get(param)
	if qv == "" {
		httpx.Error(w, http.StatusBadRequest, "missing "+param+" parameter")
		return
	}
	offset, limit, ok := httpx.PageParams(w, vals)
	if !ok {
		return
	}
	k, shardLimit := window(offset, limit)
	q := url.Values{
		param:    {qv},
		"offset": {"0"},
		"limit":  {strconv.Itoa(shardLimit)},
		"scores": {"1"},
		"deep":   {"1"},
	}.Encode()
	members, skipped := rt.scatterSet()
	pages, errs := scatter(r.Context(), members, func(ctx context.Context, m Member) (Page, error) {
		p, err := rt.client.GetPage(ctx, m.URL, path, q)
		if err == nil && len(p.Scores) != len(p.Results) {
			// An unpaired result would rank at an invented score and
			// could push a real hit out of the merged window.
			err = fmt.Errorf("cluster: shard %s%s: %d scores for %d results", m.URL, path, len(p.Scores), len(p.Results))
		}
		return p, err
	})
	rt.recordScatter(members, errs)
	partial := skipped
	total := 0
	ranked := make([][]index.Ranked, 0, len(pages))
	for si, p := range pages {
		if errs[si] != nil {
			partial = true
			continue
		}
		total += p.Total
		page := make([]index.Ranked, 0, len(p.Results))
		for i, res := range p.Results {
			if !res.BadID {
				page = append(page, index.Ranked{Key: res.ID, Score: p.Scores[i], Shard: int32(si), Pos: int32(i)})
			}
		}
		ranked = append(ranked, page)
	}
	merged := index.MergeRanked(ranked, k)
	var results []*json.RawMessage
	if offset < len(merged) {
		results = make([]*json.RawMessage, 0, len(merged)-offset)
		for _, m := range merged[offset:] {
			results = append(results, (*json.RawMessage)(&pages[m.Shard].Results[m.Pos].Bytes))
		}
	}
	if partial {
		metPartial.Inc()
	}
	httpx.WritePage(w, total, offset, limit, results, partial)
}

// window returns how many merged results a page at offset/limit needs,
// k = offset+limit, and the limit each shard is asked for: k capped at
// the deep page cap.
func window(offset, limit int) (k, shardLimit int) {
	k = offset + limit
	if k < 0 {
		// offset+limit overflowed int. A window that deep is empty on
		// any real corpus, but the envelope must still carry the true
		// total — forwarding the negative sum as the shard limit would
		// 400 every worker and "merge" a partial zero.
		k = math.MaxInt
	}
	return k, min(k, httpx.DeepPageLimit)
}

// handleTimeline merges per-shard chronological windows. Snippets carry
// their ordering keys (timestamp, id) in the payload itself, so no side
// channel is needed; each shard contributes its first offset+limit live
// snippets and the router takes the globally-earliest window.
func (rt *Router) handleTimeline(w http.ResponseWriter, r *http.Request) {
	vals := r.URL.Query()
	e := vals.Get("entity")
	if e == "" {
		httpx.Error(w, http.StatusBadRequest, "missing entity parameter")
		return
	}
	offset, limit, ok := httpx.PageParams(w, vals)
	if !ok {
		return
	}
	k, shardLimit := window(offset, limit)
	q := url.Values{
		"entity": {e},
		"offset": {"0"},
		"limit":  {strconv.Itoa(shardLimit)},
		"deep":   {"1"},
	}.Encode()
	members, skipped := rt.scatterSet()
	pages, errs := scatter(r.Context(), members, func(ctx context.Context, m Member) (Page, error) {
		return rt.client.GetPage(ctx, m.URL, "/api/timeline", q)
	})
	rt.recordScatter(members, errs)
	n := 0
	for _, p := range pages {
		n += len(p.Results)
	}
	partial := skipped
	total := 0
	all := make([]*Result, 0, n)
	for si, p := range pages {
		if errs[si] != nil {
			partial = true
			continue
		}
		total += p.Total
		for i := range p.Results {
			if res := &p.Results[i]; !res.BadID && !res.BadTime {
				all = append(all, res)
			}
		}
	}
	slices.SortFunc(all, func(a, b *Result) int {
		if c := a.Time.Compare(b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	all = all[:min(len(all), k)]
	var results []*json.RawMessage
	if offset < len(all) {
		results = make([]*json.RawMessage, 0, len(all)-offset)
		for _, res := range all[offset:] {
			results = append(results, (*json.RawMessage)(&res.Bytes))
		}
	}
	if partial {
		metPartial.Inc()
	}
	httpx.WritePage(w, total, offset, limit, results, partial)
}

// handleDocuments aggregates every shard's document list, ordered by
// (source, url) for a stable cluster-wide view.
func (rt *Router) handleDocuments(w http.ResponseWriter, r *http.Request) {
	members, skipped := rt.scatterSet()
	bodies, errs := scatter(r.Context(), members, func(ctx context.Context, m Member) ([]byte, error) {
		status, body, err := rt.client.Get(ctx, m.URL, "/api/documents", nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, &StatusError{Code: status}
		}
		return body, nil
	})
	rt.recordScatter(members, errs)
	type doc struct {
		source, url string
		raw         json.RawMessage
	}
	partial := skipped
	var docs []doc
	for si, body := range bodies {
		if errs[si] != nil {
			partial = true
			continue
		}
		var raws []json.RawMessage
		if err := json.Unmarshal(body, &raws); err != nil {
			partial = true
			continue
		}
		for _, raw := range raws {
			var dv struct {
				Source string `json:"source"`
				URL    string `json:"url"`
			}
			if err := json.Unmarshal(raw, &dv); err != nil {
				continue
			}
			docs = append(docs, doc{source: dv.Source, url: dv.URL, raw: raw})
		}
	}
	sort.Slice(docs, func(i, j int) bool {
		if docs[i].source != docs[j].source {
			return docs[i].source < docs[j].source
		}
		return docs[i].url < docs[j].url
	})
	out := make([]json.RawMessage, 0, len(docs))
	for _, d := range docs {
		out = append(out, d.raw)
	}
	if partial {
		metPartial.Inc()
		httpx.WriteJSON(w, http.StatusOK, map[string]any{"documents": out, "partial": true})
		return
	}
	httpx.WriteJSON(w, http.StatusOK, out)
}

// handleAddDocument routes an ingest to the worker owning the
// document's source and relays the worker's response verbatim.
//
// Transient owner failures (transport errors, 5xx) are retried with
// full-jitter backoff: retrying a POST the owner may have already
// applied is safe because ingest is at-least-once by contract — the
// worker's engine acknowledges a redelivered snippet as a duplicate
// (stream.ErrDuplicate) rather than storing it twice. Once the owner is
// quarantined (or retries are exhausted against a quarantined owner)
// the client gets 503 + Retry-After instead of burning more attempts:
// ingest cannot degrade to partial the way reads can, so "come back
// shortly" is the honest answer while the source's runner fails over.
func (rt *Router) handleAddDocument(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	var dv struct {
		Source string `json:"source"`
	}
	if err := json.Unmarshal(body, &dv); err != nil {
		httpx.Error(w, http.StatusBadRequest, "invalid document JSON: "+err.Error())
		return
	}
	if dv.Source == "" {
		httpx.Error(w, http.StatusBadRequest, "document needs a source")
		return
	}
	owner := rt.Ring().Owner(dv.Source)
	var lastErr string
	for attempt := 0; ; attempt++ {
		if rt.monitor.State(owner.Name) == MemberQuarantined {
			rt.ingestUnavailable(w, owner.Name, lastErr)
			return
		}
		status, respBody, err := rt.client.Post(r.Context(), http.MethodPost, owner.URL, "/api/documents", nil, body, "application/json")
		if err == nil && status < 500 {
			rt.monitor.RecordSuccess(owner.Name)
			relay(w, status, respBody)
			return
		}
		if err != nil {
			lastErr = err.Error()
		} else {
			lastErr = fmt.Sprintf("status %d", status)
		}
		rt.monitor.RecordFailure(owner.Name, lastErr)
		if attempt >= rt.ingest.Retries {
			if rt.monitor.State(owner.Name) == MemberQuarantined {
				rt.ingestUnavailable(w, owner.Name, lastErr)
			} else {
				httpx.Error(w, http.StatusBadGateway,
					fmt.Sprintf("shard %s failed after %d attempts: %s", owner.Name, attempt+1, lastErr))
			}
			return
		}
		if !retry.Sleep(r.Context(), retry.Jitter(rt.ingest.RetryBase, rt.ingest.RetryCap, attempt, rand.Int63n)) {
			httpx.Error(w, http.StatusBadGateway,
				fmt.Sprintf("shard %s: request cancelled during retry: %s", owner.Name, lastErr))
			return
		}
	}
}

// ingestUnavailable answers an ingest whose owner is quarantined: 503
// with a Retry-After of the owner's remaining cooldown — when the prober
// will next try to readmit it — rounded up, at least 1s.
func (rt *Router) ingestUnavailable(w http.ResponseWriter, ownerName, lastErr string) {
	secs := httpx.RetryAfterSeconds(rt.monitor.CooldownRemaining(ownerName))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	msg := fmt.Sprintf("shard %s quarantined; retry later", ownerName)
	if lastErr != "" {
		msg += ": " + lastErr
	}
	httpx.Error(w, http.StatusServiceUnavailable, msg)
}

// handleSelect broadcasts a selection change; every worker applies it
// to the documents it holds.
func (rt *Router) handleSelect(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	var req struct {
		URLs []string `json:"urls"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		httpx.Error(w, http.StatusBadRequest, "invalid selection JSON: "+err.Error())
		return
	}
	members, skipped := rt.scatterSet()
	_, errs := scatter(r.Context(), members, func(ctx context.Context, m Member) (struct{}, error) {
		status, _, err := rt.client.Post(ctx, http.MethodPost, m.URL, "/api/documents/select", nil, body, "application/json")
		if err != nil {
			return struct{}{}, err
		}
		if status != http.StatusOK {
			return struct{}{}, &StatusError{Code: status}
		}
		return struct{}{}, nil
	})
	rt.recordScatter(members, errs)
	partial := skipped
	for _, e := range errs {
		if e != nil {
			partial = true
		}
	}
	resp := map[string]any{"status": "selected", "count": len(req.URLs)}
	if partial {
		metPartial.Inc()
		resp["partial"] = true
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}

// handleRemoveDocument broadcasts a removal; the owning worker answers
// 200, the rest 404. Any 200 wins.
func (rt *Router) handleRemoveDocument(w http.ResponseWriter, r *http.Request) {
	u := r.URL.Query().Get("url")
	if u == "" {
		httpx.Error(w, http.StatusBadRequest, "missing url parameter")
		return
	}
	q := url.Values{"url": {u}}
	members, _ := rt.scatterSet()
	type resp struct {
		status int
		body   []byte
	}
	resps, errs := scatter(r.Context(), members, func(ctx context.Context, m Member) (resp, error) {
		status, body, err := rt.client.Post(ctx, http.MethodDelete, m.URL, "/api/documents", q, nil, "")
		return resp{status, body}, err
	})
	rt.recordScatter(members, errs)
	for i, rp := range resps {
		if errs[i] == nil && rp.status == http.StatusOK {
			relay(w, rp.status, rp.body)
			return
		}
	}
	for i, rp := range resps {
		if errs[i] == nil && rp.status != http.StatusNotFound {
			relay(w, rp.status, rp.body)
			return
		}
	}
	httpx.Error(w, http.StatusNotFound, "document not selected: "+u)
}

// handleFeeds aggregates every worker's feed status keyed by member
// name.
func (rt *Router) handleFeeds(w http.ResponseWriter, r *http.Request) {
	members, skipped := rt.scatterSet()
	bodies, errs := scatter(r.Context(), members, func(ctx context.Context, m Member) ([]byte, error) {
		status, body, err := rt.client.Get(ctx, m.URL, "/api/feeds", nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, &StatusError{Code: status}
		}
		return body, nil
	})
	rt.recordScatter(members, errs)
	workers := make(map[string]json.RawMessage, len(members))
	partial := skipped
	for i, m := range members {
		if errs[i] != nil {
			partial = true
			continue
		}
		workers[m.Name] = bodies[i]
	}
	out := map[string]any{"workers": workers}
	if partial {
		metPartial.Inc()
		out["partial"] = true
	}
	httpx.WriteJSON(w, http.StatusOK, out)
}

// handleMembersGet reports the live ring configuration.
func (rt *Router) handleMembersGet(w http.ResponseWriter, _ *http.Request) {
	ring := rt.Ring()
	httpx.WriteJSON(w, http.StatusOK, map[string]any{
		"role":    "router",
		"members": ring.Members(),
		"pins":    ring.Pins(),
	})
}

// handleMembersPut swaps in a new member list and/or pin set without
// restart. The new ring is validated before the atomic swap; in-flight
// requests finish on the ring they started with.
func (rt *Router) handleMembersPut(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Members []Member          `json:"members"`
		Pins    map[string]string `json:"pins"`
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, "reading members body: "+err.Error())
		return
	}
	// Unmarshal, not a Decoder: a Decoder stops after the first value
	// and would let trailing bytes through.
	if err := json.Unmarshal(body, &req); err != nil {
		httpx.Error(w, http.StatusBadRequest, "invalid members JSON: "+err.Error())
		return
	}
	ring, err := NewRing(req.Members, req.Pins)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	rt.ring.Store(ring)
	rt.monitor.SetMembers(req.Members)
	if rt.coord != nil {
		rt.coord.kick()
	}
	rt.handleMembersGet(w, r)
}

// handleHealthz folds the workers' health into a quorum verdict: the
// cluster is up while a strict majority of workers are not quarantined.
// A minority outage keeps serving (degraded, flagged per worker) — the
// scatter endpoints already mark those responses partial.
//
// The verdict comes from the monitor's cache, not a live fan-out: a
// load balancer polling /healthz every second must not multiply into
// N×QPS probe traffic against the workers, and must not hang for the
// shard timeout when a worker is down. The cache is at most one probe
// interval stale, and passive traffic signals tighten that in practice.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := rt.monitor.Snapshot()
	up := 0
	workers := make(map[string]string, len(snap))
	for _, v := range snap {
		workers[v.Name] = v.State.String()
		if v.State != MemberQuarantined {
			up++
		}
	}
	code := http.StatusOK
	status := "ok"
	if up*2 <= len(snap) {
		code = http.StatusServiceUnavailable
		status = "quorum lost"
	} else if up < len(snap) {
		status = "degraded"
	}
	httpx.WriteJSON(w, code, map[string]any{"status": status, "workers": workers})
}

// handleFeedAssignments reports the coordinator's assignment table:
// which member runs each cluster-managed source, whether the placement
// is an interim (failover) tenure, and the last cursor the coordinator
// observed for it.
func (rt *Router) handleFeedAssignments(w http.ResponseWriter, _ *http.Request) {
	if rt.coord == nil {
		httpx.WriteJSON(w, http.StatusOK, map[string]any{"assignments": []any{}})
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]any{"assignments": rt.coord.statusView()})
}

// relay re-emits a worker's response verbatim.
func relay(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}
