package server

import (
	"encoding/json"
	"net/http"

	"repro/internal/feed"
	"repro/internal/httpx"
)

// FeedAssignPut is the PUT /api/cluster/feeds request: the router's
// feed coordinator declaring the complete set of sources this worker
// should be running. The list is authoritative — cluster-assigned
// runners absent from it are stopped (drained, or dropped for interim
// tenures); statically configured runners are never touched.
type FeedAssignPut struct {
	// Epoch fences stale coordinators: the worker remembers the highest
	// epoch it has applied and answers 409 (with that epoch) to anything
	// older, so a partitioned or restarted coordinator cannot roll the
	// worker back to an assignment the cluster has moved past.
	Epoch       uint64            `json:"epoch"`
	Assignments []feed.Assignment `json:"assignments"`
}

// FeedAssignView is the PUT/GET /api/cluster/feeds response: the
// worker's post-apply assignment state.
type FeedAssignView struct {
	Epoch   uint64                `json:"epoch"`
	Running []feed.AssignedStatus `json:"running"`
	Stopped map[string]string     `json:"stopped,omitempty"`
	Dropped []string              `json:"dropped,omitempty"`
}

func (s *Server) handleFeedAssignGet(w http.ResponseWriter, _ *http.Request) {
	m := s.feeds.Load()
	if m == nil {
		httpx.Error(w, http.StatusNotFound, "no feed manager attached")
		return
	}
	httpx.WriteJSON(w, http.StatusOK, FeedAssignView{
		Epoch:   s.feedEpoch.Load(),
		Running: m.Assigned(),
	})
}

func (s *Server) handleFeedAssignPut(w http.ResponseWriter, r *http.Request) {
	m := s.feeds.Load()
	if m == nil {
		httpx.Error(w, http.StatusNotFound, "no feed manager attached")
		return
	}
	var req FeedAssignPut
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpx.Error(w, http.StatusBadRequest, "invalid assignment JSON: "+err.Error())
		return
	}
	// Epoch check and apply race only against other assignment PUTs, and
	// Assign serialises those internally; a stale writer losing the
	// check-then-apply race converges next round (the coordinator adopts
	// the higher epoch off the 409 and re-reconciles).
	if cur := s.feedEpoch.Load(); req.Epoch < cur {
		httpx.WriteJSON(w, http.StatusConflict, map[string]any{
			"error": "stale epoch",
			"epoch": cur,
		})
		return
	}
	res, err := m.Assign(req.Assignments)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	s.feedEpoch.Store(req.Epoch)
	httpx.WriteJSON(w, http.StatusOK, FeedAssignView{
		Epoch:   req.Epoch,
		Running: res.Running,
		Stopped: res.Stopped,
		Dropped: res.Dropped,
	})
}
