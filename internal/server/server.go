package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	storypivot "repro"
	"repro/internal/feed"
	"repro/internal/httpx"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/quota"
	"repro/internal/stream"
)

// Response-path instrumentation; request counting, latency and the
// encode/write-error counters live in httpx, and the pipeline stages
// report their own metrics.
var metEncodesSkipped = obs.GetCounter("storypivot_http_encodes_skipped_total",
	"responses served without running the JSON encoder (cache hits and 304s)")

// Server is the demonstration backend. It owns a set of available
// documents (Figure 3's document-selection module); the selected subset is
// run through a StoryPivot pipeline whose results the remaining modules
// expose. Adding a document ingests it incrementally; deselecting rebuilds
// the pipeline from the remaining selection, which mirrors the demo's
// "remove documents ... to explore how missing information affects the
// displayed stories" interaction.
//
// Locking: the live pipeline is an atomic snapshot that read handlers
// load without taking any lock, so query traffic never queues behind a
// slow deselect-rebuild. Mutations serialize on writeMu for their whole
// duration — including the rebuild ingest — and take stateMu only for the
// brief selection swap; read handlers that need selection metadata take
// stateMu.RLock and therefore block only for that swap, not the rebuild.
//
// Settling: every write path settles the pipeline before it returns (New,
// AddDocument, and a rebuild before its swap), so an acknowledged write is
// visible to the next read, and no read settles: handlers read the last
// published index and result without the engine mutex.
type Server struct {
	opts []storypivot.Option

	// pipeline is the lock-free read snapshot. Queries on a pipeline
	// that was swapped out mid-request stay valid: the engine and index
	// remain queryable after Close (the server attaches no store).
	pipeline atomic.Pointer[storypivot.Pipeline]

	// writeMu serializes Select/AddDocument/RemoveDocument. It is never
	// taken by read handlers.
	writeMu sync.Mutex

	// stateMu guards the selection metadata below.
	stateMu   sync.RWMutex
	available []*storypivot.Document
	selected  map[string]bool // by URL

	// feeds is the optionally attached continuous-ingest manager; it
	// backs /api/feeds and folds into /healthz.
	feeds atomic.Pointer[feed.Manager]

	// feedEpoch is the highest cluster feed-assignment epoch applied via
	// PUT /api/cluster/feeds; older epochs are rejected with 409.
	feedEpoch atomic.Uint64

	// ingestN and ingestNs count the timed document ingests and their
	// summed duration, from which /api/stats reports the mean.
	ingestN, ingestNs atomic.Int64

	// cache, when enabled, serves the paged query endpoints from encoded
	// bytes, each entry valid while the live pipeline's index stands
	// behind its stamp (a rebuild swaps in an index no entry names).
	cache *qcache.Cache

	// quotas, when enabled, backs the /api/admin/quotas endpoints; the
	// throttling middleware itself is wired by the cmd via
	// httpx.Config.Quota, so embedded/test handlers stay unmetered
	// unless they opt in.
	quotas *quota.Limiter

	// peers, when set (cluster workers started with -peers), is the
	// advertised worker peer list served on GET /api/cluster/members so
	// operators can inspect a worker's view of the cluster.
	peers atomic.Pointer[[]string]

	closed atomic.Bool

	// rebuildHook, when set (fault-injection tests), runs during a
	// rebuild after ingest and before the snapshot swap, with writeMu
	// held — the window in which readers must keep being served.
	rebuildHook func()

	// missHook, when set (tests), runs on a cache miss after the query
	// loaded the pipeline and before it reads the index.
	missHook func()
}

// New creates a server; opts configure every pipeline it builds. A
// pipeline restored from a store is settled before New returns.
func New(opts ...storypivot.Option) (*Server, error) {
	p, err := storypivot.New(opts...)
	if err != nil {
		return nil, err
	}
	p.Result()
	s := &Server{
		opts:     opts,
		selected: make(map[string]bool),
	}
	s.pipeline.Store(p)
	return s, nil
}

// EnableCache attaches a query-result cache. Must be called before the
// server starts handling requests. The returned cache is the one the
// server consults; tests use it to reach Len and the metrics.
func (s *Server) EnableCache(cfg qcache.Config) *qcache.Cache {
	c := qcache.New(cfg, func() *index.Index { return s.Pipeline().Index() })
	c.StartSweeper()
	s.cache = c
	return c
}

// EnableQuotas attaches a per-tenant limiter with the given default
// limit, exposing it on GET/PUT /api/admin/quotas. The enforcement
// middleware is quota.Middleware(limiter), to be placed in the httpx
// stack via Config.Quota (the cmd does this; see QuotaMiddleware).
func (s *Server) EnableQuotas(def quota.Limit) *quota.Limiter {
	s.quotas = quota.NewLimiter(def)
	return s.quotas
}

// QuotaMiddleware returns the enforcement middleware for the enabled
// limiter, or nil when quotas are off.
func (s *Server) QuotaMiddleware() httpx.Middleware {
	if s.quotas == nil {
		return nil
	}
	return quota.Middleware(s.quotas)
}

// Preload registers documents as available (but not selected).
func (s *Server) Preload(docs ...*storypivot.Document) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.available = append(s.available, docs...)
}

// SelectAll selects every available document and ingests it.
func (s *Server) SelectAll() error {
	s.stateMu.RLock()
	urls := make([]string, 0, len(s.available))
	for _, d := range s.available {
		urls = append(urls, d.URL)
	}
	s.stateMu.RUnlock()
	return s.Select(urls)
}

// Select replaces the selection with the given URLs and rebuilds the
// pipeline over them.
func (s *Server) Select(urls []string) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	want := make(map[string]bool, len(urls))
	for _, u := range urls {
		want[u] = true
	}
	return s.rebuild(want)
}

// rebuild constructs a fresh pipeline over the wanted subset, settles it
// and swaps it in. The caller holds writeMu; readers keep serving the old
// snapshot until the swap, so the (potentially slow) ingest and settle
// below block no read traffic, and no reader ever sees the new pipeline
// unsettled.
func (s *Server) rebuild(want map[string]bool) error {
	p, err := storypivot.New(s.opts...)
	if err != nil {
		return err
	}
	s.stateMu.RLock()
	avail := append([]*storypivot.Document(nil), s.available...)
	s.stateMu.RUnlock()
	sel := make(map[string]bool, len(want))
	for _, d := range avail {
		if want[d.URL] {
			start := time.Now()
			if _, err := p.AddDocument(d); err != nil {
				continue // documents with no extractable content stay unselected
			}
			s.observeIngest(time.Since(start))
			sel[d.URL] = true
		}
	}
	p.Result()
	if s.rebuildHook != nil {
		s.rebuildHook()
	}
	s.stateMu.Lock()
	old := s.pipeline.Swap(p)
	s.selected = sel
	s.stateMu.Unlock()
	if old != nil {
		old.Close()
	}
	return nil
}

// observeIngest records one document ingest's duration for /api/stats.
func (s *Server) observeIngest(d time.Duration) {
	s.ingestNs.Add(int64(d))
	s.ingestN.Add(1)
}

// AddDocument registers a new document, selects it, and ingests it
// incrementally into the live pipeline, which it settles before it
// returns: the write is visible to every read after the ack (readers are
// not paused meanwhile; they keep reading the previous publish). It
// returns how many extracted snippets the engine accepted and any
// per-snippet ingest errors; the document is registered as long as
// extraction produced something, even if individual snippets were
// rejected.
func (s *Server) AddDocument(d *storypivot.Document) (accepted int, errs []error, err error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.stateMu.RLock()
	for _, have := range s.available {
		if have.URL == d.URL {
			s.stateMu.RUnlock()
			return 0, nil, fmt.Errorf("server: document %q already registered", d.URL)
		}
	}
	s.stateMu.RUnlock()
	p := s.pipeline.Load()
	start := time.Now()
	_, accepted, errs = p.AddDocumentStats(d)
	took := time.Since(start)
	p.Result()
	if accepted == 0 && len(errs) > 0 {
		// Nothing made it in: extraction failed or every snippet was
		// rejected. The document stays unregistered.
		return 0, errs, errors.Join(errs...)
	}
	s.observeIngest(took)
	s.stateMu.Lock()
	s.available = append(s.available, d)
	s.selected[d.URL] = true
	s.stateMu.Unlock()
	return accepted, errs, nil
}

// RemoveDocument deselects a document and rebuilds the pipeline without
// it. It reports whether the document was selected.
func (s *Server) RemoveDocument(url string) (bool, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.stateMu.RLock()
	if !s.selected[url] {
		s.stateMu.RUnlock()
		return false, nil
	}
	want := make(map[string]bool, len(s.selected))
	for u := range s.selected {
		if u != url {
			want[u] = true
		}
	}
	s.stateMu.RUnlock()
	return true, s.rebuild(want)
}

// Pipeline returns the live pipeline snapshot (for embedding in other
// tools). The load is lock-free; it never queues behind a rebuild.
func (s *Server) Pipeline() *storypivot.Pipeline {
	return s.pipeline.Load()
}

// SetPeers records the worker's advertised peer list (cluster mode).
func (s *Server) SetPeers(peers []string) {
	cp := append([]string(nil), peers...)
	s.peers.Store(&cp)
}

// handleClusterMembers reports this node's cluster view: its role and
// the peers it was configured with (empty outside cluster mode).
func (s *Server) handleClusterMembers(w http.ResponseWriter, _ *http.Request) {
	role := "standalone"
	peers := []string{}
	if p := s.peers.Load(); p != nil {
		role = "worker"
		peers = append(peers, *p...)
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]any{"role": role, "peers": peers})
}

// Close stops the cache sweeper and closes the pipeline, which flushes any
// persistence. Call it during shutdown after the HTTP listener has
// drained; it is idempotent.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.cache != nil {
		s.cache.Close()
	}
	if p := s.pipeline.Load(); p != nil {
		return p.Close()
	}
	return nil
}

// Handler returns the HTTP handler exposing the demo API and UI, plus
// the observability surface: /metrics (Prometheus text format),
// /debug/vars (expvar), and /debug/pprof.
// Recovery and instrumentation are always on, even for embedded or
// test handlers; admission control, deadlines, and body caps are
// opt-in via HandlerWith (the cmd wires them from flags).
func (s *Server) Handler() http.Handler {
	return httpx.Chain(httpx.Instrument(), httpx.Recover())(s.rawMux())
}

// HandlerWith returns the handler wrapped in the full httpx production
// stack (panic recovery, instrumentation, admission gate, body cap,
// per-request deadline) configured by cfg.
func (s *Server) HandlerWith(cfg httpx.Config) http.Handler {
	return httpx.Wrap(s.rawMux(), cfg)
}

// rawMux builds the route table with no middleware.
func (s *Server) rawMux() http.Handler {
	mux := http.NewServeMux()
	debug := obs.DebugMux()
	mux.Handle("GET /metrics", debug)
	mux.Handle("GET /debug/", debug)
	mux.HandleFunc("GET /api/documents", s.handleDocuments)
	mux.HandleFunc("POST /api/documents", s.handleAddDocument)
	mux.HandleFunc("POST /api/documents/select", s.handleSelect)
	mux.HandleFunc("DELETE /api/documents", s.handleRemoveDocument)
	mux.HandleFunc("GET /api/sources", s.handleSources)
	mux.HandleFunc("GET /api/stories", s.handleStories)
	mux.HandleFunc("GET /api/integrated", s.handleIntegrated)
	mux.HandleFunc("GET /api/integrated/{id}", s.handleIntegratedOne)
	mux.HandleFunc("GET /api/search", s.handleSearch)
	mux.HandleFunc("GET /api/timeline", s.handleTimeline)
	mux.HandleFunc("GET /api/stories/by-entity", s.handleStoriesByEntity)
	mux.HandleFunc("GET /api/cluster/members", s.handleClusterMembers)
	mux.HandleFunc("GET /api/cluster/feeds", s.handleFeedAssignGet)
	mux.HandleFunc("PUT /api/cluster/feeds", s.handleFeedAssignPut)
	mux.HandleFunc("GET /api/context/{id}", s.handleContext)
	mux.HandleFunc("GET /api/profiles", s.handleProfiles)
	mux.HandleFunc("GET /api/trending", s.handleTrending)
	mux.HandleFunc("GET /api/stats", s.handleStats)
	mux.HandleFunc("GET /api/feeds", s.handleFeeds)
	mux.HandleFunc("GET /api/admin/quotas", s.handleQuotasGet)
	mux.HandleFunc("PUT /api/admin/quotas", s.handleQuotasPut)
	mux.HandleFunc("GET /api/window", s.handleWindowGet)
	mux.HandleFunc("PUT /api/admin/window", s.handleWindowPut)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /", s.handleIndex)
	return mux
}

func (s *Server) handleDocuments(w http.ResponseWriter, _ *http.Request) {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	out := make([]DocumentView, 0, len(s.available))
	for _, d := range s.available {
		preview := d.Body
		if len(preview) > 140 {
			preview = preview[:140] + "..."
		}
		out = append(out, DocumentView{
			Source:    string(d.Source),
			URL:       d.URL,
			Title:     d.Title,
			Preview:   preview,
			Published: d.Published,
			Selected:  s.selected[d.URL],
		})
	}
	httpx.WriteJSON(w, http.StatusOK, out)
}

// decodeStatus maps a request-body decode failure to its status:
// bodies cut off by the httpx body cap are 413, malformed JSON is 400.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) handleAddDocument(w http.ResponseWriter, r *http.Request) {
	var d storypivot.Document
	if err := json.NewDecoder(r.Body).Decode(&d); err != nil {
		httpx.Error(w, decodeStatus(err), "invalid document JSON: "+err.Error())
		return
	}
	accepted, ingestErrs, err := s.AddDocument(&d)
	if err != nil {
		httpx.Error(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	resp := map[string]any{
		"status":        "added",
		"url":           d.URL,
		"accepted":      accepted,
		"ingest_errors": len(ingestErrs),
	}
	if len(ingestErrs) > 0 {
		// Partial acceptance: report which snippets were rejected (capped
		// so a pathological document cannot balloon the response).
		msgs := make([]string, 0, len(ingestErrs))
		for _, e := range ingestErrs {
			if len(msgs) == 10 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(ingestErrs)-10))
				break
			}
			msgs = append(msgs, e.Error())
		}
		resp["errors"] = msgs
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URLs []string `json:"urls"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpx.Error(w, decodeStatus(err), "invalid selection JSON: "+err.Error())
		return
	}
	if err := s.Select(req.URLs); err != nil {
		httpx.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]any{"status": "selected", "count": len(req.URLs)})
}

func (s *Server) handleRemoveDocument(w http.ResponseWriter, r *http.Request) {
	url := r.URL.Query().Get("url")
	if url == "" {
		httpx.Error(w, http.StatusBadRequest, "missing url parameter")
		return
	}
	ok, err := s.RemoveDocument(url)
	if err != nil {
		httpx.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !ok {
		httpx.Error(w, http.StatusNotFound, "document not selected: "+url)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "removed", "url": url})
}

func (s *Server) handleSources(w http.ResponseWriter, _ *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, s.Pipeline().Sources())
}

func (s *Server) handleStories(w http.ResponseWriter, r *http.Request) {
	src := r.URL.Query().Get("source")
	if src == "" {
		httpx.Error(w, http.StatusBadRequest, "missing source parameter")
		return
	}
	detail := r.URL.Query().Get("detail") == "1"
	p := s.Pipeline()
	// The source's stories as the last settle published them: every
	// per-source story is a member of exactly one integrated story.
	out := []StoryView{}
	for _, is := range p.Published().Integrated() {
		for _, st := range is.Members {
			if st.Source == storypivot.SourceID(src) {
				out = append(out, storyView(p, st, detail))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	httpx.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleIntegrated(w http.ResponseWriter, _ *http.Request) {
	if out, ok := fragments(w, s.Pipeline().Published().Integrated(), storyFragment); ok {
		httpx.WriteJSON(w, http.StatusOK, out)
	}
}

func (s *Server) handleIntegratedOne(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, "invalid story id")
		return
	}
	p := s.Pipeline()
	for _, is := range p.Published().Integrated() {
		if uint64(is.ID) == id {
			httpx.WriteJSON(w, http.StatusOK, integratedView(p, is, true))
			return
		}
	}
	httpx.Error(w, http.StatusNotFound, "no such integrated story")
}

// cacheMode classifies the request's Cache-Control directives: normal
// lookups, no-cache (bypass the read but refresh the stored entry —
// forced revalidation), and no-store (touch the cache not at all).
type cacheMode int

const (
	modeNormal cacheMode = iota
	modeNoCache
	modeNoStore
)

func requestCacheMode(r *http.Request) cacheMode {
	cc := r.Header.Get("Cache-Control")
	switch {
	case cc == "":
		return modeNormal
	case strings.Contains(cc, "no-store"):
		return modeNoStore
	case strings.Contains(cc, "no-cache"):
		return modeNoCache
	}
	return modeNormal
}

// etagMatch implements If-None-Match weak comparison (RFC 9110 §13.1.2):
// validators match ignoring the W/ prefix; "*" matches anything.
func etagMatch(inm, etag string) bool {
	if inm == "" {
		return false
	}
	if strings.TrimSpace(inm) == "*" {
		return true
	}
	etag = strings.TrimPrefix(etag, "W/")
	for _, cand := range strings.Split(inm, ",") {
		if strings.TrimPrefix(strings.TrimSpace(cand), "W/") == etag {
			return true
		}
	}
	return false
}

// serveEncoded commits an already-encoded cacheable response: a bodyless
// 304 when the client's If-None-Match matches, the full 200 otherwise.
// Vary names X-API-Key because the quota middleware makes the status
// (200 vs 429) credential-dependent — a shared intermediary must not
// replay one tenant's response for another. X-Cache is diagnostic:
// HIT (served from cache), MISS (computed and stored), BYPASS
// (computed because the request opted out of cache reads).
func serveEncoded(w http.ResponseWriter, r *http.Request, body []byte, etag, xcache string) {
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Vary", "X-API-Key")
	h.Set("X-Cache", xcache)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	httpx.WriteBody(w, http.StatusOK, body)
}

// fragments renders each item through render (storyFragment or
// snippetFragment). A failed render is answered as a failed encoding and
// ok is false.
func fragments[T any](w http.ResponseWriter, items []T, render func(T) (*json.RawMessage, error)) (out []*json.RawMessage, ok bool) {
	out = make([]*json.RawMessage, 0, len(items))
	for _, it := range items {
		b, err := render(it)
		if err != nil {
			httpx.EncodeError(w, err)
			return nil, false
		}
		out = append(out, b)
	}
	return out, true
}

// storiesPage renders the body of one page of ranked integrated stories,
// the SearchPageView of /api/search and /api/stories/by-entity.
func storiesPage(w http.ResponseWriter, hits []*storypivot.IntegratedStory, scores []float64, total, offset, limit int) ([]byte, bool) {
	out, ok := fragments(w, hits, storyFragment)
	if !ok {
		return nil, false
	}
	return httpx.EncodePage(w, total, offset, limit, out, scores)
}

// snippetsPage renders the body of one page of a timeline, the
// TimelinePageView of /api/timeline.
func snippetsPage(w http.ResponseWriter, rd snippetTexter, sns []*storypivot.Snippet, total, offset, limit int) ([]byte, bool) {
	out, ok := fragments(w, sns, func(sn *storypivot.Snippet) (*json.RawMessage, error) {
		return snippetFragment(rd, sn)
	})
	if !ok {
		return nil, false
	}
	return httpx.EncodePage(w, total, offset, limit, out, nil)
}

// scoredEndpoint appends the scores=1 marker to a cache-key endpoint
// namespace: scored and unscored responses to the same query differ in
// bytes, so they must never share a cache entry.
func scoredEndpoint(endpoint string, withScores bool) string {
	if withScores {
		return endpoint + "+scores"
	}
	return endpoint
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	vals := r.URL.Query()
	q := vals.Get("q")
	if q == "" {
		httpx.Error(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	offset, limit, ok := httpx.PageParams(w, vals)
	if !ok {
		return
	}
	withScores := vals.Get("scores") == "1"
	s.cachedQuery(w, r, scoredEndpoint("search", withScores), q, offset, limit,
		func(p *storypivot.Pipeline) ([]byte, index.Stamp, bool) {
			if withScores {
				hits, scores, total, st := p.Index().SearchScored(q, offset, limit)
				body, ok := storiesPage(w, hits, scores, total, offset, limit)
				return body, st, ok
			}
			hits, total, st := p.Index().Search(q, offset, limit)
			body, ok := storiesPage(w, hits, nil, total, offset, limit)
			return body, st, ok
		})
}

// handleStoriesByEntity serves the ranked integrated stories mentioning
// an entity — the paged, cacheable form of the library-level
// StoriesByEntity query, and the third endpoint the cluster router
// scatter-gathers. The envelope is SearchPageView: same shape, same
// ordering contract (score descending, ties by ascending ID).
func (s *Server) handleStoriesByEntity(w http.ResponseWriter, r *http.Request) {
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
	withScores := vals.Get("scores") == "1"
	s.cachedQuery(w, r, scoredEndpoint("by-entity", withScores), e, offset, limit,
		func(p *storypivot.Pipeline) ([]byte, index.Stamp, bool) {
			if withScores {
				hits, scores, total, st := p.Index().StoriesByEntityScored(storypivot.Entity(e), offset, limit)
				body, ok := storiesPage(w, hits, scores, total, offset, limit)
				return body, st, ok
			}
			hits, total, st := p.Index().StoriesByEntity(storypivot.Entity(e), offset, limit)
			body, ok := storiesPage(w, hits, nil, total, offset, limit)
			return body, st, ok
		})
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
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
	s.cachedQuery(w, r, "timeline", e, offset, limit,
		func(p *storypivot.Pipeline) ([]byte, index.Stamp, bool) {
			sns, total, st := p.Index().Timeline(storypivot.Entity(e), offset, limit)
			body, ok := snippetsPage(w, p, sns, total, offset, limit)
			return body, st, ok
		})
}

// cachedQuery serves one paged index query: straight from the live pipeline
// when the cache is off, through the cache otherwise. compute reads the
// index of the pipeline it is given and returns the page's body with the
// index's stamp for it, or false once it has written an error response.
// The body is exact-size (httpx.EncodePage), so the cache keeps no spare
// capacity with it.
//
// Every write settled before its ack, so its publish has already stamped
// what it changed. The cache checks each entry's stamp against the live
// index on Get and Put, so no step below has to come before another: a
// publish or a rebuild that overtakes the index read leaves a stamp the
// live index no longer stands behind, and the page is not stored.
func (s *Server) cachedQuery(w http.ResponseWriter, r *http.Request, endpoint, query string, offset, limit int,
	compute func(*storypivot.Pipeline) ([]byte, index.Stamp, bool)) {
	p := s.Pipeline()
	if s.cache == nil {
		if body, _, ok := compute(p); ok {
			httpx.WriteBody(w, http.StatusOK, body)
		}
		return
	}
	key := qcache.Key(endpoint, query, offset, limit)
	mode := requestCacheMode(r)
	if mode == modeNormal {
		if body, etag, ok := s.cache.Get(key); ok {
			metEncodesSkipped.Inc()
			serveEncoded(w, r, body, etag, "HIT")
			return
		}
	}
	if s.missHook != nil {
		s.missHook()
	}
	body, st, ok := compute(p)
	if !ok {
		return // compute wrote its own error response
	}
	etag := qcache.ETagFor(body)
	if mode != modeNoStore {
		s.cache.Put(key, st, body, etag)
	}
	label := "MISS"
	if mode != modeNormal {
		label = "BYPASS"
	}
	serveEncoded(w, r, body, etag, label)
}

// handleQuotasGet exposes the live quota configuration.
func (s *Server) handleQuotasGet(w http.ResponseWriter, _ *http.Request) {
	if s.quotas == nil {
		httpx.Error(w, http.StatusNotFound, "quota enforcement not enabled")
		return
	}
	httpx.WriteJSON(w, http.StatusOK, s.quotas.Snapshot())
}

// handleQuotasPut applies a quota.Update — new default and/or tenant
// overrides — without restart, answering with the resulting config.
func (s *Server) handleQuotasPut(w http.ResponseWriter, r *http.Request) {
	if s.quotas == nil {
		httpx.Error(w, http.StatusNotFound, "quota enforcement not enabled")
		return
	}
	var u quota.Update
	if err := json.NewDecoder(r.Body).Decode(&u); err != nil {
		httpx.Error(w, decodeStatus(err), "invalid quota JSON: "+err.Error())
		return
	}
	if err := s.quotas.Apply(u); err != nil {
		httpx.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	httpx.WriteJSON(w, http.StatusOK, s.quotas.Snapshot())
}

// handleContext resolves an integrated story's entities against the
// pipeline's knowledge base (paper §3: KB integration for story context).
func (s *Server) handleContext(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, "invalid story id")
		return
	}
	p := s.Pipeline()
	if p.KnowledgeBase() == nil {
		httpx.Error(w, http.StatusNotImplemented, "no knowledge base attached")
		return
	}
	for _, is := range p.Published().Integrated() {
		if uint64(is.ID) == id {
			httpx.WriteJSON(w, http.StatusOK, p.Context(is))
			return
		}
	}
	httpx.Error(w, http.StatusNotFound, "no such integrated story")
}

// handleProfiles serves the per-source reporting profiles (timeliness,
// coverage, exclusivity) derived from the current alignment.
func (s *Server) handleProfiles(w http.ResponseWriter, _ *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, s.Pipeline().SourceProfiles())
}

// TrendView is one row of the trending endpoint.
type TrendView struct {
	Story  IntegratedView `json:"story"`
	Recent int            `json:"recent"`
	Score  float64        `json:"score"`
}

// trendRow is what the server encodes for a TrendView: the story arrives
// as its storyFragment.
type trendRow struct {
	Story  *json.RawMessage `json:"story"`
	Recent int              `json:"recent"`
	Score  float64          `json:"score"`
}

// handleTrending ranks stories by recent activity relative to their own
// history. `now` defaults to the corpus's latest timestamp (demo corpora
// are historical, so wall-clock now would always be quiet); `window`
// accepts Go duration syntax (default 72h).
func (s *Server) handleTrending(w http.ResponseWriter, r *http.Request) {
	p := s.Pipeline()
	_, end := p.Engine().TimeRange()
	now := end
	if v := r.URL.Query().Get("now"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			httpx.Error(w, http.StatusBadRequest, "invalid now (want RFC3339)")
			return
		}
		now = t
	}
	window := 72 * time.Hour
	if v := r.URL.Query().Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			httpx.Error(w, http.StatusBadRequest, "invalid window duration")
			return
		}
		window = d
	}
	trends := p.Trending(now, window)
	out := make([]trendRow, 0, len(trends))
	for _, tr := range trends {
		story, err := storyFragment(tr.Story)
		if err != nil {
			httpx.EncodeError(w, err)
			return
		}
		out = append(out, trendRow{Story: story, Recent: tr.Recent, Score: tr.Score})
	}
	httpx.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.stateMu.RLock()
	docCount := len(s.selected)
	s.stateMu.RUnlock()
	p := s.Pipeline()
	var ingestMean time.Duration
	if n := s.ingestN.Load(); n > 0 {
		ingestMean = time.Duration(s.ingestNs.Load() / n)
	}
	alignMean := stream.AlignMean()

	res := p.Published()
	view := StatsView{
		Ingested:      p.Engine().Ingested(),
		Integrated:    len(res.Integrated()),
		MultiSource:   len(res.MultiSource()),
		Matches:       len(res.Matches()),
		AlignMeanMs:   float64(alignMean) / float64(time.Millisecond),
		IngestMeanUs:  float64(ingestMean) / float64(time.Microsecond),
		DocumentCount: docCount,
	}
	for _, src := range p.Sources() {
		st, stories, ok := p.Engine().SourceStats(src)
		if !ok {
			continue
		}
		view.Sources = append(view.Sources, SourceStatsView{
			Source:      string(src),
			Snippets:    st.Processed,
			Stories:     stories,
			Comparisons: st.Comparisons,
			Splits:      st.Splits,
			Merges:      st.Merges,
		})
	}
	view.EntityCount = int(p.Engine().DistinctEntities())
	view.StartDate, view.EndDate = p.Engine().TimeRange()
	httpx.WriteJSON(w, http.StatusOK, view)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(indexHTML))
}
