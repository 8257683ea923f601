package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
)

const ingestBatch = 32 // ingest-stream: snippets per Result() settle

// clientCount is the closed-loop concurrency: one goroutine and one
// keep-alive connection per client, never more clients than cores.
func clientCount() int { return min(runtime.NumCPU(), 4) }

// tally is what one client observed; the clients' tallies are merged.
type tally struct {
	attempted, failed int
	consumed          uint64 // sum of opHash over executed ops
	searches          int
	searchHits        int
	accepted          int // snippets the POST responses reported accepted
	respBytes         int64
	reads200          int
	errs              []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.consumed += o.consumed
	t.searches += o.searches
	t.searchHits += o.searchHits
	t.accepted += o.accepted
	t.respBytes += o.respBytes
	t.reads200 += o.reads200
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p/100+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median of values; 0 for none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}

// phase is what the clients record about the measured phase, op by op.
type phase struct {
	start time.Time
	lat   []int64 // ns per op index; 0 where the op yields no sample
	// On a traced run only: when each op completed, in ns since start,
	// and how many consecutive ops share a tracing state (see
	// layerTrace.overhead).
	doneAt []int64
	block  int
}

func newPhase(ops int) *phase { return &phase{lat: make([]int64, ops)} }

// completed notes that op i is done.
func (p *phase) completed(i int) {
	if p.doneAt != nil {
		p.doneAt[i] = int64(time.Since(p.start))
	}
}

// samples returns the latency samples, sorted.
func (p *phase) samples() []int64 {
	var all []int64
	for _, v := range p.lat {
		if v > 0 {
			all = append(all, v)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// pageEnvelope is the paged response shape of the three read endpoints.
type pageEnvelope struct {
	Total   int               `json:"total"`
	Offset  int               `json:"offset"`
	Limit   int               `json:"limit"`
	Results []json.RawMessage `json:"results"`
	Partial bool              `json:"partial"`
}

// The cheap per-response checks read the indented encoding directly.
var (
	totalPrefix = []byte("{\n  \"total\": ")
	partialMark = []byte("\"partial\": true")
)

// leadingTotal reads the envelope's total without decoding the body.
func leadingTotal(body []byte) (int, bool) {
	if !bytes.HasPrefix(body, totalPrefix) {
		return 0, false
	}
	rest := body[len(totalPrefix):]
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(string(rest[:end]))
	return n, err == nil
}

// httpLoad drives a target over loopback HTTP.
type httpLoad struct {
	base    *url.URL
	postURL *url.URL
	client  *http.Client
	ks      *keyspace
	urls    []*url.URL // per read key
	docs    [][]byte   // per held-out document, JSON
	etags   []atomic.Pointer[string]
	cluster bool // responses must never be partial; no ETags to revalidate
	tr      *tracer
	opName  int32
}

const decodeEvery = 16 // fully decode one response in this many

var tenantKeys = func() [tenants]string {
	var out [tenants]string
	for i := range out {
		out[i] = fmt.Sprintf("tenant-%d", i)
	}
	return out
}()

func newHTTPLoad(t *target, ks *keyspace, docs [][]byte, clients int) (*httpLoad, error) {
	base, err := url.Parse(t.url)
	if err != nil {
		return nil, err
	}
	postURL, err := url.Parse(t.url + "/api/documents")
	if err != nil {
		return nil, err
	}
	l := &httpLoad{
		base: base,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
		postURL: postURL,
		ks:      ks,
		docs:    docs,
		etags:   make([]atomic.Pointer[string], len(ks.keys)),
		cluster: t.router != nil,
		tr:      t.tracer,
	}
	for _, k := range ks.keys {
		u, err := url.Parse(t.url + k.path)
		if err != nil {
			return nil, err
		}
		l.urls = append(l.urls, u)
	}
	if l.tr != nil {
		l.opName = l.tr.name("client.op")
	}
	return l, nil
}

func (l *httpLoad) close() { l.client.CloseIdleConnections() }

// run executes ops with the given number of closed-loop clients: each
// takes the next op of the shared sequence when its previous one is done.
// On a traced run the per-request spans switch on and off in blocks of
// ph.block ops, so the run carries its own untraced reference.
func (l *httpLoad) run(ops []op, clients int, ph *phase) (*tally, time.Duration) {
	var next atomic.Int64
	tallies := make([]*tally, clients)
	var wg sync.WaitGroup
	start := time.Now()
	ph.start = start
	for c := range tallies {
		tallies[c] = &tally{}
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			var body bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				if ph.block > 0 && i%ph.block == 0 {
					l.tr.on.Store(tracedBlock(i / ph.block))
				}
				l.do(t, i, ops[i], &body, ph)
				ph.completed(i)
			}
		}(tallies[c])
	}
	wg.Wait()
	wall := time.Since(start)
	total := tallies[0]
	for _, t := range tallies[1:] {
		total.merge(t)
	}
	return total, wall
}

func (l *httpLoad) do(t *tally, i int, o op, body *bytes.Buffer, ph *phase) {
	t.attempted++
	t.consumed += opHash(i, o)
	req := &http.Request{
		Method:     http.MethodGet,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header, 4),
		Host:       l.base.Host,
	}
	req.Header["X-Api-Key"] = []string{tenantKeys[o.tenant]}
	sentETag := false
	if o.kind == opWrite {
		doc := l.docs[o.key]
		req.Method = http.MethodPost
		req.URL = l.postURL
		req.Body = io.NopCloser(bytes.NewReader(doc))
		req.ContentLength = int64(len(doc))
		req.Header["Content-Type"] = []string{"application/json"}
	} else {
		req.URL = l.urls[o.key]
		if o.reval {
			if et := l.etags[o.key].Load(); et != nil {
				req.Header["If-None-Match"] = []string{*et}
				sentETag = true
			}
		}
	}
	var t0 int64
	traced := l.tr != nil && l.tr.on.Load()
	if traced {
		req.Header[opHeader] = []string{strconv.Itoa(i)}
		t0 = l.tr.now()
	}
	start := time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		t.fail("op %d %s: %v", i, kindNames[o.kind], err)
		return
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if traced {
		l.tr.add(l.opName, -1, int32(i), -1, t0, l.tr.now())
	}
	if err != nil {
		t.fail("op %d %s: reading body: %v", i, kindNames[o.kind], err)
		return
	}
	if o.kind == opWrite {
		l.checkWrite(t, i, resp, body.Bytes())
		return
	}
	ph.lat[i] = int64(elapsed)
	l.checkRead(t, i, o, resp, body.Bytes(), sentETag)
}

func (l *httpLoad) checkWrite(t *tally, i int, resp *http.Response, body []byte) {
	if resp.StatusCode != http.StatusOK {
		t.fail("op %d write: status %d: %s", i, resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	var ack struct {
		Accepted     int `json:"accepted"`
		IngestErrors int `json:"ingest_errors"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.fail("op %d write: decoding ack: %v", i, err)
		return
	}
	t.accepted += ack.Accepted
	if ack.Accepted != 1 || ack.IngestErrors != 0 {
		t.fail("op %d write: accepted %d, ingest errors %d", i, ack.Accepted, ack.IngestErrors)
	}
}

func (l *httpLoad) checkRead(t *tally, i int, o op, resp *http.Response, body []byte, sentETag bool) {
	if resp.StatusCode == http.StatusNotModified && sentETag {
		return
	}
	if resp.StatusCode != http.StatusOK {
		t.fail("op %d %s: status %d: %s", i, kindNames[o.kind], resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	t.reads200++
	t.respBytes += int64(len(body))
	if et := resp.Header["Etag"]; len(et) == 1 {
		if old := l.etags[o.key].Load(); old == nil || *old != et[0] {
			l.etags[o.key].Store(&et[0])
		}
	}
	total, ok := leadingTotal(body)
	if !ok {
		t.fail("op %d %s: body is not a page envelope", i, kindNames[o.kind])
		return
	}
	if o.kind == opSearch {
		t.searches++
		if total > 0 {
			t.searchHits++
		}
	}
	if l.cluster && bytes.Contains(body, partialMark) {
		t.fail("op %d %s: partial response", i, kindNames[o.kind])
		return
	}
	if i%decodeEvery != 0 {
		return
	}
	var env pageEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.fail("op %d %s: decoding envelope: %v", i, kindNames[o.kind], err)
		return
	}
	k := l.ks.keys[o.key]
	if env.Total != total || len(env.Results) > env.Total || len(env.Results) > k.limit ||
		env.Offset != k.offset || env.Limit != k.limit || env.Partial {
		t.fail("op %d %s: envelope total=%d offset=%d limit=%d results=%d partial=%v",
			i, kindNames[o.kind], env.Total, env.Offset, env.Limit, len(env.Results), env.Partial)
	}
}

// ingestItem is one measured snippet with its index in the op sequence.
type ingestItem struct {
	idx int
	sn  *event.Snippet
}

// runIngest drives the library pipeline as feed runners do: each runner
// owns the sources assigned to it and ingests their snippets in arrival
// order, 32 at a time, settling after every batch. A snippet's latency
// runs from the start of its Ingest call to the return of its batch's
// Result().
//
// The runners take strict turns on one goroutine. Run concurrently they
// serialise on the engine mutex anyway (alignment holds it 99.8 % of the
// time), and the pair falls at random into one of two interleavings: a
// settle either catches the other runner between batches and touches 4
// sources, or mid-batch and touches all 8. The two differ by 35 % in
// allocations and time per snippet, on identical inputs.
func runIngest(t *target, ops []op, measured []*event.Snippet, owner map[event.SourceID]int, runners int, ph *phase) (*tally, time.Duration) {
	mine := make([][]ingestItem, runners)
	for i, sn := range measured {
		r := owner[sn.Source]
		mine[r] = append(mine[r], ingestItem{i, sn})
	}
	var batchName, ingestName, resultName int32
	tr := t.tracer
	if tr != nil {
		batchName, ingestName, resultName = tr.name("client.batch"), tr.name("pipeline.ingest"), tr.name("pipeline.result")
	}
	ta := &tally{}
	var starts [ingestBatch]time.Time
	start := time.Now()
	ph.start = start
	for left := len(measured); left > 0; {
		for r := range mine {
			batch := mine[r][:min(ingestBatch, len(mine[r]))]
			if len(batch) == 0 {
				continue
			}
			mine[r] = mine[r][len(batch):]
			left -= len(batch)
			var t0, t1 int64
			if tr != nil {
				t0 = tr.now()
			}
			for j, it := range batch {
				ta.attempted++
				ta.consumed += opHash(it.idx, ops[it.idx])
				starts[j] = time.Now()
				if err := t.pipe.Ingest(it.sn); err != nil {
					ta.fail("snippet %d: %v", it.sn.ID, err)
				} else {
					ta.accepted++
				}
			}
			if tr != nil {
				t1 = tr.now()
			}
			t.pipe.Result()
			done := time.Now()
			for j, it := range batch {
				ph.lat[it.idx] = int64(done.Sub(starts[j]))
				ph.completed(it.idx)
			}
			if tr != nil {
				t2 := tr.now()
				root := tr.add(batchName, -1, int32(batch[0].idx), -1, t0, t2)
				tr.add(ingestName, -1, int32(batch[0].idx), root, t0, t1)
				tr.add(resultName, -1, int32(batch[0].idx), root, t1, t2)
			}
		}
	}
	return ta, time.Since(start)
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
