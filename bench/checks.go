package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"

	"repro/internal/event"
	"repro/internal/text"
)

// probes picks 64 read keys that do not depend on the seed, spread
// evenly over each kind's keys in readmix's 40/30/30 proportions.
func probes(ks *keyspace) []readKey {
	share := [numReadKinds]int{26, 19, 19}
	var out []readKey
	for k, n := range share {
		ids := ks.byKind[k]
		if n > len(ids) {
			n = len(ids)
		}
		for i := 0; i < n; i++ {
			out = append(out, ks.keys[ids[i*len(ids)/n]])
		}
	}
	return out
}

// scanHit is one result of a full scan: a story with its ranking score,
// or a snippet with its timestamp.
type scanHit struct {
	id    uint64
	score float64
	ts    time.Time
}

// scan recomputes a probe from the node's settled integrated stories
// the way the full-scan query path does, and returns every hit in rank
// order.
func scan(n *node, k readKey) []scanHit {
	var hits []scanHit
	stories := n.srv.Pipeline().Result().Integrated()
	switch k.kind {
	case opSearch:
		toks := text.Pipeline(k.arg)
		for _, is := range stories {
			centroid := is.Centroid()
			var w float64
			for _, tok := range toks {
				w += centroid[tok]
			}
			if w > 0 {
				hits = append(hits, scanHit{id: uint64(is.ID), score: w})
			}
		}
	case opEntity:
		for _, is := range stories {
			if c := is.EntityFreq()[event.Entity(k.arg)]; c > 0 {
				hits = append(hits, scanHit{id: uint64(is.ID), score: float64(c)})
			}
		}
	case opTimeline:
		for _, is := range stories {
			for _, sn := range is.Snippets() {
				if sn.HasEntity(event.Entity(k.arg)) {
					hits = append(hits, scanHit{id: uint64(sn.ID), ts: sn.Timestamp})
				}
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i], hits[j]
		if !a.ts.Equal(b.ts) {
			return a.ts.Before(b.ts)
		}
		if a.score != b.score {
			return a.score > b.score
		}
		return a.id < b.id
	})
	return hits
}

// checkScan compares every node's served answer to each probe with a
// full scan over the same node's settled result: the same total, and at
// every position of the window a result whose scan score is the scan's
// score at that position. Scores are compared, not IDs, because the
// index sums a story's term weights member by member and the scan sums
// the merged centroid, so two stories whose scores differ in the last
// bits may swap places; anything else is a wrong result.
//
// The scan is recomputed here from the pipeline's public Result()
// instead of asking a second WithScanQueries(true) server, because a
// second server does not reproduce the first: with refinement on,
// identically fed pipelines settle to different story sets about one
// time in four (map iteration order), and after concurrent writes the
// state also depends on how settles interleaved.
func checkScan(client *http.Client, t *target, ps []readKey) error {
	const tolerance = 1e-9
	for _, n := range t.nodes {
		for _, p := range ps {
			body, err := fetch(client, n.url+p.path, false)
			if err != nil {
				return fmt.Errorf("probe %s on %s: %w", p.path, n.name, err)
			}
			var env struct {
				Total   int `json:"total"`
				Results []struct {
					ID uint64 `json:"id"`
				} `json:"results"`
			}
			if err := json.Unmarshal(body, &env); err != nil {
				return fmt.Errorf("probe %s on %s: %w", p.path, n.name, err)
			}
			hits := scan(n, p)
			byID := make(map[uint64]scanHit, len(hits))
			for _, h := range hits {
				byID[h.id] = h
			}
			window := hits[min(p.offset, len(hits)):min(p.offset+p.limit, len(hits))]
			same := env.Total == len(hits) && len(env.Results) == len(window)
			for i := 0; same && i < len(window); i++ {
				got, ok := byID[env.Results[i].ID]
				want := window[i]
				same = ok && got.ts.Equal(want.ts) && math.Abs(got.score-want.score) <= tolerance*math.Abs(want.score)
				if p.kind == opTimeline {
					same = same && got.id == want.id
				}
			}
			if !same {
				return fmt.Errorf("probe %s on %s: served total %d, %d results; full scan total %d, window of %d; the results differ",
					p.path, n.name, env.Total, len(env.Results), len(hits), len(window))
			}
		}
	}
	return nil
}

// fetch GETs a URL over loopback, optionally bypassing the cache read.
func fetch(client *http.Client, url string, noCache bool) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if noCache {
		req.Header.Set("Cache-Control", "no-cache")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return body, nil
}

// checkRefetch asks every node for each probe twice over loopback, once
// as cached and once with Cache-Control: no-cache, and requires the
// bodies to be byte-identical: whatever the cache holds after the
// measured phase is what the index would compute now.
func checkRefetch(client *http.Client, t *target, ps []readKey) error {
	for _, n := range t.nodes {
		for _, p := range ps {
			cached, err := fetch(client, n.url+p.path, false)
			if err != nil {
				return fmt.Errorf("probe %s on %s: %w", p.path, n.name, err)
			}
			fresh, err := fetch(client, n.url+p.path, true)
			if err != nil {
				return fmt.Errorf("probe %s on %s (no-cache): %w", p.path, n.name, err)
			}
			if !bytes.Equal(cached, fresh) {
				return fmt.Errorf("probe %s on %s: cached response differs from a no-cache refetch", p.path, n.name)
			}
		}
	}
	return nil
}
