package server

import (
	"net/http"

	"repro/internal/feed"
	"repro/internal/httpx"
	"repro/internal/retire"
)

// FeedsView is the GET /api/feeds response: the manager-level rollup
// plus every per-source runner snapshot.
type FeedsView struct {
	Draining    bool                `json:"draining"`
	Healthy     int                 `json:"healthy"`
	Degraded    int                 `json:"degraded"`
	Quarantined int                 `json:"quarantined"`
	DLQDepth    int                 `json:"dlq_depth"`
	Sources     []feed.SourceStatus `json:"sources"`
}

// HealthView is the GET /healthz response body.
type HealthView struct {
	Status      string `json:"status"`
	Healthy     int    `json:"healthy,omitempty"`
	Degraded    int    `json:"degraded,omitempty"`
	Quarantined int    `json:"quarantined,omitempty"`
	// Window reports retirement state when the pipeline runs with a
	// bounded story window; operators read resident/archived counts off
	// the probe they already scrape.
	Window *retire.View `json:"window,omitempty"`
}

// AttachFeeds exposes a feed manager on /api/feeds and folds its health
// into /healthz. Call before serving; the server does not take
// ownership (the cmd owns the manager's Close, because drain ordering —
// stop HTTP, drain feeds, close pipeline — is a process concern).
func (s *Server) AttachFeeds(m *feed.Manager) {
	s.feeds.Store(m)
}

// Feeds returns the attached feed manager, or nil.
func (s *Server) Feeds() *feed.Manager {
	return s.feeds.Load()
}

func (s *Server) handleFeeds(w http.ResponseWriter, _ *http.Request) {
	m := s.feeds.Load()
	if m == nil {
		httpx.Error(w, http.StatusNotFound, "no feed manager attached")
		return
	}
	h, d, q := m.StateCounts()
	view := FeedsView{
		Draining:    m.Draining(),
		Healthy:     h,
		Degraded:    d,
		Quarantined: q,
		Sources:     m.Status(),
	}
	if dlq := m.DLQ(); dlq != nil {
		view.DLQDepth = dlq.Len()
	}
	httpx.WriteJSON(w, http.StatusOK, view)
}

// handleHealthz is the load-balancer probe. 503 means "stop routing
// here": the process is draining (or closed), or every feed source is
// quarantined so the ingest plane is effectively down. A degraded
// source alone stays 200 — backoff is handling it.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	view := HealthView{Status: "ok"}
	code := http.StatusOK
	if m := s.feeds.Load(); m != nil {
		view.Healthy, view.Degraded, view.Quarantined = m.StateCounts()
		switch {
		case m.Draining():
			view.Status = "draining"
			code = http.StatusServiceUnavailable
		case view.Quarantined > 0 && view.Healthy == 0 && view.Degraded == 0:
			view.Status = "quarantined"
			code = http.StatusServiceUnavailable
		case view.Degraded > 0 || view.Quarantined > 0:
			view.Status = "degraded"
		}
	}
	if m := s.Pipeline().Retire(); m != nil {
		v := m.Snapshot()
		view.Window = &v
	}
	if s.closed.Load() {
		view.Status = "closed"
		code = http.StatusServiceUnavailable
	}
	httpx.WriteJSON(w, code, view)
}
