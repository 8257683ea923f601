package server

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/httpx"
	"repro/internal/retire"
)

// WindowUpdate is the PUT /api/admin/window request body. Durations are
// strings in Go syntax ("72h", "90m"); absent fields keep their current
// value, mirroring the partial-update shape of the quota admin endpoint.
type WindowUpdate struct {
	Window      *string `json:"window"`
	Grace       *string `json:"grace"`
	MinResident *int    `json:"min_resident"`
}

// handleWindowGet exposes the retirement window state: policy, event-time
// watermark, resident/archived story counts, lifecycle totals.
func (s *Server) handleWindowGet(w http.ResponseWriter, _ *http.Request) {
	m := s.Pipeline().Retire()
	if m == nil {
		httpx.Error(w, http.StatusNotFound, "story retirement not enabled")
		return
	}
	httpx.WriteJSON(w, http.StatusOK, m.Snapshot())
}

// handleWindowPut rebases the live retirement policy without restart,
// answering with the resulting window state.
func (s *Server) handleWindowPut(w http.ResponseWriter, r *http.Request) {
	m := s.Pipeline().Retire()
	if m == nil {
		httpx.Error(w, http.StatusNotFound, "story retirement not enabled")
		return
	}
	var body WindowUpdate
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		httpx.Error(w, decodeStatus(err), "invalid window JSON: "+err.Error())
		return
	}
	var u retire.Update
	if body.Window != nil {
		d, err := time.ParseDuration(*body.Window)
		if err != nil {
			httpx.Error(w, http.StatusBadRequest, "invalid window duration: "+err.Error())
			return
		}
		u.Window = &d
	}
	if body.Grace != nil {
		d, err := time.ParseDuration(*body.Grace)
		if err != nil {
			httpx.Error(w, http.StatusBadRequest, "invalid grace duration: "+err.Error())
			return
		}
		u.Grace = &d
	}
	u.MinResident = body.MinResident
	if err := m.Apply(u); err != nil {
		httpx.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	httpx.WriteJSON(w, http.StatusOK, m.Snapshot())
}
