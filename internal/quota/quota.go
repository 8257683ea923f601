// Package quota implements per-tenant request quotas for the query
// API: a registry of token buckets keyed by tenant (API key), with a
// resolved default limit, per-tenant overrides that can be inspected
// and changed at runtime, and an http.Handler middleware that throttles
// with 429 + Retry-After. It exists so one hot tenant cannot starve the
// others of the serving capacity the admission gate (internal/httpx)
// protects globally: the gate sheds when the *process* is saturated,
// the quota throttles when a *tenant* exceeds its contract, and the two
// answer with distinguishable 429s.
package quota

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/obs"
)

var (
	metAllowed   = obs.GetCounter("storypivot_quota_allowed_total", "API requests admitted by the per-tenant quota")
	metThrottled = obs.GetCounter("storypivot_quota_throttled_total", "API requests rejected with 429 by the per-tenant quota")
)

// Limit is a tenant's contract: a sustained rate and a burst size.
// RPS <= 0 means unlimited (no bucket is maintained at all); Burst < 1
// is rounded up to 1 so a positive rate always admits single requests.
type Limit struct {
	RPS   float64 `json:"rps"`
	Burst int     `json:"burst"`
}

// Unlimited reports whether the limit admits everything.
func (l Limit) Unlimited() bool { return l.RPS <= 0 }

func (l Limit) normalized() Limit {
	if l.Unlimited() {
		return Limit{}
	}
	if l.Burst < 1 {
		l.Burst = 1
	}
	return l
}

// bucket is a classic token bucket, refilled lazily on each Take from
// the elapsed wall time. Guarded by the Limiter's mutex: quota checks
// are a few arithmetic ops, far off the serving hot path's scale, and
// a single lock keeps live limit updates trivially consistent.
type bucket struct {
	limit  Limit
	tokens float64
	last   time.Time
}

// take refills from elapsed time and tries to spend one token. When it
// fails it returns how long until one token will be available.
func (b *bucket) take(now time.Time) (ok bool, wait time.Duration) {
	if b.limit.Unlimited() {
		return true, 0
	}
	if now.After(b.last) {
		b.tokens += now.Sub(b.last).Seconds() * b.limit.RPS
		if max := float64(b.limit.Burst); b.tokens > max {
			b.tokens = max
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / b.limit.RPS // seconds until the next token
	return false, time.Duration(math.Ceil(need * float64(time.Second)))
}

// Limiter is the tenant registry. Safe for concurrent use.
type Limiter struct {
	mu        sync.Mutex
	def       Limit
	overrides map[string]Limit
	buckets   map[string]*bucket
	now       func() time.Time
}

// NewLimiter creates a limiter whose tenants fall back to def unless
// overridden. A def with RPS <= 0 admits unknown tenants unlimited.
func NewLimiter(def Limit) *Limiter {
	return &Limiter{
		def:       def.normalized(),
		overrides: make(map[string]Limit),
		buckets:   make(map[string]*bucket),
		now:       time.Now,
	}
}

// SetNow overrides the clock (tests only).
func (l *Limiter) SetNow(now func() time.Time) {
	l.mu.Lock()
	l.now = now
	l.mu.Unlock()
}

// Allow spends one token from the tenant's bucket. On refusal it
// returns the duration after which a retry can succeed.
func (l *Limiter) Allow(tenant string) (ok bool, retryAfter time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	limit := l.limitLocked(tenant)
	if limit.Unlimited() {
		return true, 0
	}
	b := l.buckets[tenant]
	if b == nil {
		b = &bucket{limit: limit, tokens: float64(limit.Burst), last: l.now()}
		l.buckets[tenant] = b
	}
	return b.take(l.now())
}

func (l *Limiter) limitLocked(tenant string) Limit {
	if lim, ok := l.overrides[tenant]; ok {
		return lim
	}
	return l.def
}

// Limit returns the tenant's effective limit.
func (l *Limiter) Limit(tenant string) Limit {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limitLocked(tenant)
}

// Default returns the fallback limit for tenants without an override.
func (l *Limiter) Default() Limit {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.def
}

// SetDefault replaces the fallback limit, rebasing the buckets of all
// tenants without an override so the new limit takes effect at once.
func (l *Limiter) SetDefault(lim Limit) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.def = lim.normalized()
	for tenant, b := range l.buckets {
		if _, ok := l.overrides[tenant]; ok {
			continue
		}
		l.rebaseLocked(tenant, b, l.def)
	}
}

// SetOverride installs (or, with an unlimited limit and drop=true,
// removes) a tenant's override and rebases its live bucket.
func (l *Limiter) SetOverride(tenant string, lim Limit) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lim = lim.normalized()
	l.overrides[tenant] = lim
	if b := l.buckets[tenant]; b != nil {
		l.rebaseLocked(tenant, b, lim)
	}
}

// ClearOverride removes a tenant's override; it falls back to the
// default.
func (l *Limiter) ClearOverride(tenant string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.overrides, tenant)
	if b := l.buckets[tenant]; b != nil {
		l.rebaseLocked(tenant, b, l.def)
	}
}

// rebaseLocked applies a new limit to a live bucket. Tokens are
// clamped to the new burst so shrinking a quota takes effect without
// waiting for an old, larger burst to drain.
func (l *Limiter) rebaseLocked(tenant string, b *bucket, lim Limit) {
	if lim.Unlimited() {
		delete(l.buckets, tenant)
		return
	}
	b.limit = lim
	if max := float64(lim.Burst); b.tokens > max {
		b.tokens = max
	}
}

// Overrides returns a sorted snapshot of the per-tenant overrides.
func (l *Limiter) Overrides() []TenantLimit {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]TenantLimit, 0, len(l.overrides))
	for t, lim := range l.overrides {
		out = append(out, TenantLimit{Tenant: t, Limit: lim})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// TenantLimit pairs a tenant with its limit for the admin API.
type TenantLimit struct {
	Tenant string `json:"tenant"`
	Limit
}

// Snapshot is the GET /api/admin/quotas payload.
type Snapshot struct {
	Default   Limit         `json:"default"`
	Overrides []TenantLimit `json:"overrides"`
}

// Snapshot returns the full quota configuration.
func (l *Limiter) Snapshot() Snapshot {
	return Snapshot{Default: l.Default(), Overrides: l.Overrides()}
}

// Update is the PUT /api/admin/quotas payload: an optional new default
// plus tenant overrides. A tenant with "clear": true drops back to the
// default.
type Update struct {
	Default *Limit `json:"default,omitempty"`
	Tenants []struct {
		Tenant string `json:"tenant"`
		Clear  bool   `json:"clear,omitempty"`
		Limit
	} `json:"tenants,omitempty"`
}

// Apply validates and applies an update atomically enough for the
// admin API: each entry takes effect immediately and independently.
func (l *Limiter) Apply(u Update) error {
	for _, t := range u.Tenants {
		if t.Tenant == "" {
			return fmt.Errorf("quota: tenant entry with empty tenant")
		}
	}
	if u.Default != nil {
		l.SetDefault(*u.Default)
	}
	for _, t := range u.Tenants {
		if t.Clear {
			l.ClearOverride(t.Tenant)
		} else {
			l.SetOverride(t.Tenant, t.Limit)
		}
	}
	return nil
}

// Tenant extracts the requester's identity: the X-API-Key header, else
// the api_key query parameter, else "anonymous". The fallback keeps
// unauthenticated demo traffic in one shared bucket instead of
// unlimited.
func Tenant(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	if k := r.URL.Query().Get("api_key"); k != "" {
		return k
	}
	return "anonymous"
}

// throttleBody is the 429 payload. A JSON object (vs the admission
// gate's plain-text "server overloaded, retry later") so clients and
// the conformance suite can tell "you are over your quota" from "the
// server is saturated".
type throttleBody struct {
	Error      string  `json:"error"`
	Tenant     string  `json:"tenant"`
	RetryAfter float64 `json:"retry_after_seconds"`
}

// Middleware throttles requests per tenant. Only query API paths are
// metered: health, metrics, and the admin endpoints stay reachable so
// a throttled operator can still raise their own quota.
func Middleware(l *Limiter) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !Metered(r.URL.Path) {
				next.ServeHTTP(w, r)
				return
			}
			tenant := Tenant(r)
			ok, retry := l.Allow(tenant)
			if ok {
				metAllowed.Inc()
				next.ServeHTTP(w, r)
				return
			}
			metThrottled.Inc()
			// One rounded value for both the header and the JSON body:
			// a client reading either hint waits the same whole-second
			// interval (the body used to carry the raw fractional wait,
			// under-waiting the header and sometimes reading 0).
			secs := httpx.RetryAfterSeconds(retry)
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			httpx.WriteJSON(w, http.StatusTooManyRequests, throttleBody{
				Error:      "tenant quota exceeded",
				Tenant:     tenant,
				RetryAfter: float64(secs),
			})
		})
	}
}

// Metered reports whether a path is subject to tenant quotas.
func Metered(path string) bool {
	const api, admin = "/api/", "/api/admin/"
	if len(path) < len(api) || path[:len(api)] != api {
		return false
	}
	return len(path) < len(admin) || path[:len(admin)] != admin
}
