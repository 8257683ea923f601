package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/obs"
)

var (
	metShardRequests = obs.GetCounter("storypivot_cluster_shard_requests_total",
		"requests the router issued to worker shards")
	metShardErrors = obs.GetCounter("storypivot_cluster_shard_errors_total",
		"shard requests that failed (transport error, timeout, or 5xx)")
	metShardHedges = obs.GetCounter("storypivot_cluster_shard_hedges_total",
		"duplicate shard requests launched because the first was slow")
	metPartial = obs.GetCounter("storypivot_cluster_partial_responses_total",
		"router responses served degraded because at least one shard failed")
)

// Client issues requests to worker shards. One Client serves all
// shards: the transport below it keeps per-host connection pools, so
// per-shard connection reuse falls out of a single shared transport.
type Client struct {
	hc         *http.Client
	timeout    time.Duration // per-shard request deadline
	hedgeAfter time.Duration // 0 disables hedging
}

// ClientConfig configures shard fan-out behaviour.
type ClientConfig struct {
	// Timeout bounds every shard request (default 5s).
	Timeout time.Duration
	// HedgeAfter launches a second identical GET if the first has not
	// answered within this duration; the first response wins. 0
	// disables hedging. Only idempotent requests hedge.
	HedgeAfter time.Duration
}

// NewClient builds a shard client.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	return &Client{
		hc: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		timeout:    cfg.Timeout,
		hedgeAfter: cfg.HedgeAfter,
	}
}

type httpResult struct {
	status int
	body   []byte
	err    error
}

// Get fetches base+path?query from a shard, hedging if configured.
// A non-2xx status is returned with err == nil; transport failures and
// deadline overruns come back as err.
func (c *Client) Get(ctx context.Context, base, path string, query url.Values) (int, []byte, error) {
	return c.get(ctx, shardURL(base, path, query.Encode()))
}

// shardURL joins a shard's base URL, a path and an encoded query.
func shardURL(base, path, rawQuery string) string {
	if rawQuery == "" {
		return base + path
	}
	return base + path + "?" + rawQuery
}

func (c *Client) get(ctx context.Context, u string) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	ch := make(chan httpResult, 2)
	issue := func() {
		metShardRequests.Inc()
		ch <- c.do(ctx, http.MethodGet, u, nil, "")
	}
	go issue()
	if c.hedgeAfter > 0 {
		t := time.NewTimer(c.hedgeAfter)
		defer t.Stop()
		select {
		case res := <-ch:
			return finish(res)
		case <-t.C:
			metShardHedges.Inc()
			go issue()
		}
	}
	res := <-ch
	return finish(res)
}

// Post forwards a request body to a shard. Never hedged: ingest is not
// idempotent.
func (c *Client) Post(ctx context.Context, method, base, path string, query url.Values, body []byte, contentType string) (int, []byte, error) {
	u := shardURL(base, path, query.Encode())
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	metShardRequests.Inc()
	return finish(c.do(ctx, method, u, body, contentType))
}

func finish(res httpResult) (int, []byte, error) {
	if res.err != nil {
		metShardErrors.Inc()
		return 0, nil, res.err
	}
	if res.status >= 500 {
		metShardErrors.Inc()
	}
	return res.status, res.body, nil
}

func (c *Client) do(ctx context.Context, method, u string, body []byte, contentType string) httpResult {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return httpResult{err: err}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return httpResult{err: err}
	}
	defer resp.Body.Close()
	b, err := readBody(resp)
	if err != nil {
		return httpResult{err: err}
	}
	return httpResult{status: resp.StatusCode, body: b}
}

// maxPresize caps the buffer readBody sizes from a Content-Length
// header, so that a shard announcing a huge body cannot make the router
// allocate it before a byte has arrived; a larger body grows the buffer
// as it is read.
const maxPresize = 4 << 20

// readBody reads a response body into one buffer sized from its
// Content-Length, where io.ReadAll would grow one from 512 bytes.
func readBody(resp *http.Response) ([]byte, error) {
	size := resp.ContentLength
	if size < 0 || size > maxPresize {
		size = 0
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// StatusError reports a shard answering with an unexpected HTTP status.
// Scatter paths use it to distinguish "the worker is up but rejected
// this request" (4xx — not a health signal) from "the worker is down or
// broken" (transport error or 5xx — counts toward quarantine).
type StatusError struct {
	Code int
}

func (e *StatusError) Error() string { return fmt.Sprintf("shard status %d", e.Code) }

// GetPage fetches a worker's paged query envelope and parses it as
// bytes (parsePage). rawQuery is the encoded query string: a scatter
// encodes it once for all of its shards.
func (c *Client) GetPage(ctx context.Context, base, path, rawQuery string) (Page, error) {
	status, body, err := c.get(ctx, shardURL(base, path, rawQuery))
	if err != nil {
		return Page{}, err
	}
	if status != http.StatusOK {
		return Page{}, fmt.Errorf("cluster: shard %s%s: %w", base, path, &StatusError{Code: status})
	}
	p, err := parsePage(body)
	if err != nil {
		return Page{}, fmt.Errorf("cluster: shard %s%s: %w", base, path, err)
	}
	return p, nil
}
