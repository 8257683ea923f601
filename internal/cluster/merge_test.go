package cluster_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpx"
)

// stubPage is a worker's paged envelope as the worker encodes it.
type stubPage struct {
	Total   int               `json:"total"`
	Offset  int               `json:"offset"`
	Limit   int               `json:"limit"`
	Results []json.RawMessage `json:"results"`
	Scores  []float64         `json:"scores,omitempty"`
}

// stubRouter starts one stub worker per page, each answering every
// request with its page, and a router over them.
func stubRouter(t *testing.T, pages ...stubPage) *httptest.Server {
	t.Helper()
	var members []cluster.Member
	for i, p := range pages {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			httpx.WriteJSON(w, http.StatusOK, p)
		}))
		t.Cleanup(ts.Close)
		members = append(members, cluster.Member{Name: fmt.Sprintf("w%d", i), URL: ts.URL})
	}
	rt, err := cluster.NewRouter(cluster.Config{Members: members, Client: cluster.ClientConfig{Timeout: 2 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return rts
}

func rawf(format string, args ...any) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(format, args...))
}

// TestTimelineMergeOrdersByInstant: the timeline merge orders snippets
// by (instant, id) across shards, as decoding their timestamps did —
// equal instants by id, whatever UTC offset each is written with — and
// splices them into an envelope byte-identical to encoding the merged
// window whole.
func TestTimelineMergeOrdersByInstant(t *testing.T) {
	snippet := func(id int, ts string) json.RawMessage {
		return rawf(`{"id":%d,"timestamp":%q,"text":"snippet <%d>"}`, id, ts, id)
	}
	// In instant order: 2 (13:59:59.5Z), then 3, 4 and 5 all at 14:00Z,
	// then 1 at 14:30Z. Compared as strings, 1 ("15:30+01:00") would sort
	// before 5 ("16:00+02:00").
	s1 := snippet(1, "2014-07-17T15:30:00+01:00")
	s2 := snippet(2, "2014-07-17T13:59:59.5Z")
	s3 := snippet(3, "2014-07-17T14:00:00Z")
	s4 := snippet(4, "2014-07-17T12:00:00-02:00")
	s5 := snippet(5, "2014-07-17T16:00:00+02:00")
	rts := stubRouter(t,
		stubPage{Total: 3, Limit: 20, Results: []json.RawMessage{s3, s5, s1}},
		stubPage{Total: 4, Limit: 20, Results: []json.RawMessage{s2, s4}},
	)
	for _, tc := range []struct {
		window        string
		offset, limit int
		want          []json.RawMessage
	}{
		{"", 0, httpx.DefaultPageLimit, []json.RawMessage{s2, s3, s4, s5, s1}},
		{"&offset=1&limit=3", 1, 3, []json.RawMessage{s3, s4, s5}},
		{"&offset=4&limit=3", 4, 3, []json.RawMessage{s1}},
		{"&offset=5&limit=3", 5, 3, []json.RawMessage{}},
	} {
		code, body := get(t, rts.URL, "/api/timeline?entity=MH17"+tc.window)
		want, _ := httpx.EncodeJSON(httptest.NewRecorder(), stubPage{Total: 7, Offset: tc.offset, Limit: tc.limit, Results: tc.want})
		if code != http.StatusOK || string(body) != string(want) {
			t.Errorf("window %q: status %d\n%s\nwant\n%s", tc.window, code, body, want)
		}
	}
}

// TestRankedScoreCountMismatchIsPartial: a ranked shard page whose
// scores do not pair one to one with its results is malformed. The
// router drops that shard and answers partial instead of ranking the
// unpaired results at a made-up score; an empty page without a scores
// field stays valid.
func TestRankedScoreCountMismatchIsPartial(t *testing.T) {
	story := func(id int) json.RawMessage { return rawf(`{"id":%d,"entities":[]}`, id) }
	good := stubPage{Total: 2, Limit: 10, Results: []json.RawMessage{story(1), story(2)}, Scores: []float64{0.9, 0.1}}
	empty := stubPage{Limit: 10, Results: []json.RawMessage{}}
	type envelope struct {
		Total   int               `json:"total"`
		Offset  int               `json:"offset"`
		Limit   int               `json:"limit"`
		Results []json.RawMessage `json:"results"`
		Partial bool              `json:"partial,omitempty"`
	}
	for _, tc := range []struct {
		name    string
		bad     stubPage
		partial bool
	}{
		{"fewer scores", stubPage{Total: 2, Limit: 10, Results: []json.RawMessage{story(3), story(4)}, Scores: []float64{0.5}}, true},
		{"no scores", stubPage{Total: 1, Limit: 10, Results: []json.RawMessage{story(3)}}, true},
		{"more scores", stubPage{Total: 1, Limit: 10, Results: []json.RawMessage{story(3)}, Scores: []float64{0.5, 0.4}}, true},
		{"empty page without scores", empty, false},
	} {
		rts := stubRouter(t, good, tc.bad)
		total := good.Total
		if !tc.partial {
			total += tc.bad.Total
		}
		want, _ := httpx.EncodeJSON(httptest.NewRecorder(), envelope{
			Total: total, Limit: httpx.DefaultPageLimit, Results: good.Results, Partial: tc.partial,
		})
		for _, path := range []string{"/api/search?q=crash", "/api/stories/by-entity?entity=MH17"} {
			if code, body := get(t, rts.URL, path); code != http.StatusOK || string(body) != string(want) {
				t.Errorf("%s %s: status %d\n%s\nwant\n%s", tc.name, path, code, body, want)
			}
		}
	}
}
