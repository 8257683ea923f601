package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	storypivot "repro"
	"repro/internal/event"
	"repro/internal/extract"
	"repro/internal/identify"
	"repro/internal/storage"
	"repro/internal/stream"
)

// The onion replay runs after the measured phase, on one goroutine,
// against the settled system: the same seeded ops are executed at
// successive public boundaries, each a layer further out, and a layer's
// self time is the difference between the means at neighbouring
// boundaries. Nothing contends, so these are uncontended costs.
//
//	read:  index.Index → Pipeline.*N → Handler() → HandlerWith() → loopback → router
//	write: Extractor.Extract → Store.Append → Identifier.Process →
//	       Engine.Ingest → Pipeline.AddDocumentStats → POST Handler() → loopback → router
//
// Layers the workload does not load are not replayed and read 0.

const onionReads = 2000 // read ops replayed per boundary, at scale 1

// timer accumulates the duration of repeated calls.
type timer struct {
	total time.Duration
	n     int
}

func (t *timer) time(fn func()) {
	start := time.Now()
	fn()
	t.total += time.Since(start)
	t.n++
}

func (t *timer) us() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.total) / float64(t.n) / 1e3
}

func (lt *layerTrace) onion(v map[string]float64) error {
	if !lt.f.library() {
		if err := lt.onionReads(v); err != nil {
			return err
		}
	}
	return lt.onionWrites(v)
}

// onionReads replays the first read ops of the sequence. On the cluster
// the inner boundaries are worker w0's, over its own partition.
func (lt *layerTrace) onionReads(v map[string]float64) error {
	f, t := lt.f, lt.f.t
	n := t.nodes[0]
	p := n.srv.Pipeline()
	idx := p.Index()
	var keys []readKey
	for _, o := range f.ops {
		if o.kind != opWrite {
			keys = append(keys, f.ks.keys[o.key])
			if len(keys) == scaled(onionReads, min(lt.cfg.scale, 1)) {
				break
			}
		}
	}
	p.Result() // settle whatever the checks left dirty

	// One boundary per pass, so no boundary runs on the caches its
	// neighbour just warmed; an untimed pass first warms them for all.
	var index [numReadKinds]timer
	var pipeline, miss, hit, stack, loop timer
	var discard timer
	indexPass := func(tm func(opKind) *timer) {
		for _, k := range keys {
			e := event.Entity(k.arg)
			switch k.kind {
			case opSearch:
				tm(k.kind).time(func() { idx.Search(k.arg, k.offset, k.limit) })
			case opEntity:
				tm(k.kind).time(func() { idx.StoriesByEntity(e, k.offset, k.limit) })
			case opTimeline:
				tm(k.kind).time(func() { idx.Timeline(e, k.offset, k.limit) })
			}
		}
	}
	indexPass(func(opKind) *timer { return &discard })
	indexPass(func(k opKind) *timer { return &index[k] })
	for _, k := range keys {
		e := event.Entity(k.arg)
		switch k.kind {
		case opSearch:
			pipeline.time(func() { p.SearchN(k.arg, k.offset, k.limit) })
		case opEntity:
			pipeline.time(func() { p.StoriesByEntityN(e, k.offset, k.limit) })
		case opTimeline:
			pipeline.time(func() { p.TimelineN(e, k.offset, k.limit) })
		}
	}
	indexAll := timer{index[0].total + index[1].total + index[2].total, len(keys)}

	// Handler(): the miss path recomputes and refreshes the entry
	// (Cache-Control: no-cache), the hit path then finds it. Requests and
	// recorders are built beforehand, so the allocation counts are the
	// handler's own.
	serveAll := func(h http.Handler, tm *timer, noCache bool) (allocsPerOp float64, err error) {
		reqs := make([]*http.Request, len(keys))
		recs := make([]*httptest.ResponseRecorder, len(keys))
		for i, k := range keys {
			reqs[i] = httptest.NewRequest(http.MethodGet, k.path, nil)
			if noCache {
				reqs[i].Header.Set("Cache-Control", "no-cache")
			}
			recs[i] = httptest.NewRecorder()
		}
		runtime.GC()
		before := mallocs()
		for i := range keys {
			tm.time(func() { h.ServeHTTP(recs[i], reqs[i]) })
		}
		allocsPerOp = float64(mallocs()-before) / float64(len(keys))
		for i, rec := range recs {
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("onion: %s: status %d", keys[i].path, rec.Code)
			}
		}
		return allocsPerOp, nil
	}
	var err error
	if v["server.allocs_per_miss"], err = serveAll(n.bare, &miss, true); err != nil {
		return err
	}
	// The two hit boundaries differ by a fraction of a microsecond, so
	// their passes alternate and accumulate.
	for pass := 0; pass < 3; pass++ {
		if v["server.allocs_per_hit"], err = serveAll(n.bare, &hit, false); err != nil {
			return err
		}
		if _, err = serveAll(n.stack, &stack, false); err != nil {
			return err
		}
	}
	get := func(base string, k readKey, tm *timer) error {
		var err error
		tm.time(func() {
			var resp *http.Response
			if resp, err = f.load.client.Get(base + k.path); err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		})
		return err
	}
	for _, k := range keys {
		if err := get(n.url, k, &loop); err != nil {
			return fmt.Errorf("onion: %s: %w", k.path, err)
		}
	}
	v["index.search_us"], v["index.entity_us"], v["index.timeline_us"] = index[opSearch].us(), index[opEntity].us(), index[opTimeline].us()
	v["pipeline.query_self_us"] = pipeline.us() - indexAll.us()
	v["server.miss_self_us"] = miss.us() - pipeline.us()
	v["qcache.hit_us"] = hit.us()
	v["httpx.stack_self_us"] = stack.us() - hit.us()
	v["transport.self_us"] = loop.us() - stack.us()
	lt.cfg.log("onion read path, mean us per op over %d ops: index %.2f, pipeline %.2f, handler miss %.2f, handler hit %.2f, full stack hit %.2f, loopback hit %.2f",
		len(keys), indexAll.us(), pipeline.us(), miss.us(), hit.us(), stack.us(), loop.us())
	if err := lt.uncachedSearch(keys); err != nil {
		return err
	}

	if t.router == nil {
		return nil
	}
	// The router boundary: its handler in-process with the workers'
	// handler spans recorded, then over loopback. The router's self time
	// is its handler's time minus the slowest worker's, which it waits for.
	workerSpans := make(chan span, len(t.nodes))
	lt.tr.notify.Store(&workerSpans)
	var routerSelf, routed timer
	lt.tr.on.Store(true)
	for _, k := range keys {
		start := time.Now()
		rec := httptest.NewRecorder()
		t.front.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, k.path, nil))
		total := time.Since(start)
		var slowest int64
		for range t.nodes { // a read fans out to every worker
			if s := <-workerSpans; s.end-s.start > slowest {
				slowest = s.end - s.start
			}
		}
		routerSelf.total += total - time.Duration(slowest)
		routerSelf.n++
	}
	lt.tr.on.Store(false)
	lt.tr.notify.Store(nil)
	for _, k := range keys {
		if err := get(t.url, k, &routed); err != nil {
			return fmt.Errorf("onion: routed %s: %w", k.path, err)
		}
	}
	v["cluster.read_self_us"] = routerSelf.us()
	lt.cfg.log("onion router read, mean us per op: router self %.2f, routed loopback %.2f", routerSelf.us(), routed.us())
	return nil
}

// uncachedSearch logs the onion of an uncached search, time and
// allocations at every read boundary, one boundary per pass: the
// breakdown README.md explains.
func (lt *layerTrace) uncachedSearch(keys []readKey) error {
	n := lt.f.t.nodes[0]
	p := n.srv.Pipeline()
	idx := p.Index()
	var searches []readKey
	for _, k := range keys {
		if k.kind == opSearch {
			searches = append(searches, k)
		}
	}
	if len(searches) == 0 {
		return nil
	}
	recorded := func(h http.Handler) func(int) error {
		reqs := make([]*http.Request, len(searches))
		recs := make([]*httptest.ResponseRecorder, len(searches))
		for i, k := range searches {
			reqs[i] = httptest.NewRequest(http.MethodGet, k.path, nil)
			reqs[i].Header.Set("Cache-Control", "no-cache")
			recs[i] = httptest.NewRecorder()
		}
		return func(i int) error {
			h.ServeHTTP(recs[i], reqs[i])
			if recs[i].Code != http.StatusOK {
				return fmt.Errorf("status %d", recs[i].Code)
			}
			return nil
		}
	}
	loopback := func(i int) error {
		req, err := http.NewRequest(http.MethodGet, n.url+searches[i].path, nil)
		if err != nil {
			return err
		}
		req.Header.Set("Cache-Control", "no-cache")
		resp, err := lt.f.load.client.Do(req)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err
	}
	for _, b := range []struct {
		name string
		call func(i int) error
	}{
		{"index.Search", func(i int) error { k := searches[i]; idx.Search(k.arg, k.offset, k.limit); return nil }},
		{"Pipeline.SearchN", func(i int) error { k := searches[i]; p.SearchN(k.arg, k.offset, k.limit); return nil }},
		{"Handler().ServeHTTP", recorded(n.bare)},
		{"HandlerWith().ServeHTTP", recorded(n.stack)},
		{"loopback GET", loopback},
	} {
		runtime.GC()
		before, start := mallocs(), time.Now()
		for i := range searches {
			if err := b.call(i); err != nil {
				return fmt.Errorf("onion: %s %s: %w", b.name, searches[i].path, err)
			}
		}
		elapsed, allocs := time.Since(start), mallocs()-before
		lt.cfg.log("onion, uncached search at %-24s %8.2f us %7.1f allocs (mean of %d)",
			b.name, float64(elapsed.Microseconds())/float64(len(searches)), float64(allocs)/float64(len(searches)), len(searches))
	}
	return nil
}

// onionWrites replays the write path. The inner boundaries are fresh
// stand-alone components fed the run's own snippets (the preload
// untimed, then the measured ones timed); the outer ones spend held-out
// documents reserved for the replay on the live system.
func (lt *layerTrace) onionWrites(v map[string]float64) error {
	f := lt.f
	var timed []*event.Snippet // what the measured phase ingested, as snippets
	switch {
	case f.library():
		timed = f.measured
	case f.writes > 0:
		timed = f.heldOut[:f.writes]
	default:
		return nil // read-only: the write path is not loaded
	}
	opts := stream.DefaultOptions()
	opts.RefineOnAlign = true

	// Identifier.Process, one identifier per source as the engine keeps them.
	ids := map[event.SourceID]*identify.Identifier{}
	process := func(sn *event.Snippet) {
		id := ids[sn.Source]
		if id == nil {
			id = identify.New(sn.Source, opts.Identify, identify.NewSourceAlloc(sn.Source))
			ids[sn.Source] = id
		}
		id.Process(sn)
	}
	var identifyT, engineT timer
	for _, sn := range f.preload {
		process(sn)
	}
	for _, sn := range timed {
		identifyT.time(func() { process(sn) })
	}
	// Engine.Ingest on a fresh engine. What it adds to identification is
	// under a microsecond in thirty, less than two passes over different
	// heaps differ by, so its self time subtracts the identification time
	// (scoring plus the periodic repair) the program reports for this
	// same pass.
	eng := stream.NewEngine(opts)
	for _, sn := range f.preload {
		if _, err := eng.Ingest(sn); err != nil {
			return fmt.Errorf("onion: engine preload: %w", err)
		}
	}
	var ingestErr error
	before := takeObs()
	for _, sn := range timed {
		engineT.time(func() {
			if _, err := eng.Ingest(sn); err != nil {
				ingestErr = err
			}
		})
	}
	d := obsDelta{before, takeObs()}
	reported := (d.sumUS("storypivot_identify_process_seconds") + d.sumUS("storypivot_identify_repair_seconds")) / float64(len(timed))
	if ingestErr != nil {
		return fmt.Errorf("onion: engine ingest: %w", ingestErr)
	}
	var settle timer
	settle.time(func() { eng.Align() })
	v["identify.process_us"] = identifyT.us()
	v["stream.ingest_self_us"] = engineT.us() - reported
	lt.cfg.log("onion write path, mean us per snippet over %d: identify %.2f, engine ingest %.2f (of which identify, program-reported, %.2f); one settle of all of them %.0f us",
		len(timed), identifyT.us(), engineT.us(), reported, settle.us())

	if f.library() {
		return lt.onionLibraryWrites(v, timed, engineT.us())
	}
	return lt.onionDocumentWrites(v, eng)
}

// onionLibraryWrites: Store.Append and Pipeline.Ingest, on a fresh store
// and a fresh pipeline.
func (lt *layerTrace) onionLibraryWrites(v map[string]float64, timed []*event.Snippet, engineUS float64) error {
	f := lt.f
	dir := filepath.Join(lt.cfg.outDir, fmt.Sprintf("onion-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	st, err := storage.Open(filepath.Join(dir, "store"), storage.Options{})
	if err != nil {
		return err
	}
	var appendT, pipelineT timer
	var werr error
	for _, sn := range f.preload {
		if err := st.Append(sn); err != nil {
			st.Close()
			return err
		}
	}
	for _, sn := range timed {
		appendT.time(func() {
			if err := st.Append(sn); err != nil {
				werr = err
			}
		})
	}
	if err := st.Close(); err != nil || werr != nil {
		return fmt.Errorf("onion: store append: %v, close: %v", werr, err)
	}
	p, err := storypivot.New(storypivot.WithStorage(filepath.Join(dir, "pipeline")), storypivot.WithRefinement(true))
	if err != nil {
		return err
	}
	defer p.Close()
	for _, sn := range f.preload {
		if err := p.Ingest(sn); err != nil {
			return fmt.Errorf("onion: pipeline preload: %w", err)
		}
	}
	for _, sn := range timed {
		pipelineT.time(func() {
			if err := p.Ingest(sn); err != nil {
				werr = err
			}
		})
	}
	if werr != nil {
		return fmt.Errorf("onion: pipeline ingest: %w", werr)
	}
	v["storage.append_us"] = appendT.us()
	v["pipeline.ingest_self_us"] = pipelineT.us() - appendT.us() - engineUS
	lt.cfg.log("onion write path, mean us per snippet: store append %.2f, pipeline ingest %.2f", appendT.us(), pipelineT.us())
	return nil
}

// onionDocumentWrites spends the reserved held-out documents, a fresh
// set per boundary, on the live system. No read follows, so no settle
// runs: these are the costs of the write path alone.
func (lt *layerTrace) onionDocumentWrites(v map[string]float64, eng *stream.Engine) error {
	f, t := lt.f, lt.f.t
	per := replayDocs(lt.cfg.scale)
	reserve := f.heldOut[len(f.heldOut)-onionWrites*per:]
	set := func(i int) []*event.Snippet { return reserve[i*per : (i+1)*per] }
	owner := shardOf(f.c)
	nodeOf := func(sn *event.Snippet) *node {
		if t.router == nil {
			return t.nodes[0]
		}
		return t.nodes[owner[sn.Source]]
	}

	// The first set goes through the inner boundaries too (a fresh
	// extractor, and the stand-alone engine that has ingested what the
	// live ones have), so the pipeline's self time subtracts like from like.
	var extractT, engineT, pipelineT, handlerT, loopT, relayT timer
	x := extract.NewExtractor(f.c.gaz)
	for _, sn := range set(0) {
		doc := document(sn)
		var out []*event.Snippet
		var err error
		extractT.time(func() { out, err = x.Extract(doc) })
		if err != nil || len(out) != 1 {
			return fmt.Errorf("onion: extracting %s: %d snippets, %v", doc.URL, len(out), err)
		}
		engineT.time(func() { _, err = eng.Ingest(out[0]) })
		if err != nil {
			return fmt.Errorf("onion: engine ingest of %s: %w", doc.URL, err)
		}
	}
	for _, sn := range set(0) {
		doc := document(sn)
		var accepted int
		var errs []error
		pipelineT.time(func() { _, accepted, errs = nodeOf(sn).srv.Pipeline().AddDocumentStats(doc) })
		if accepted != 1 || len(errs) > 0 {
			return fmt.Errorf("onion: AddDocumentStats %s: accepted %d, errors %v", doc.URL, accepted, errs)
		}
	}
	post := func(h http.Handler, sn *event.Snippet, tm *timer) error {
		req := httptest.NewRequest(http.MethodPost, "/api/documents", bytes.NewReader(documentJSON(sn)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		tm.time(func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return fmt.Errorf("onion: POST %s: status %d: %s", sn.Document, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return nil
	}
	for _, sn := range set(1) {
		if err := post(nodeOf(sn).bare, sn, &handlerT); err != nil {
			return err
		}
	}
	loopPost := func(base string, sn *event.Snippet, tm *timer) error {
		var err error
		tm.time(func() {
			var resp *http.Response
			if resp, err = f.load.client.Post(base+"/api/documents", "application/json", bytes.NewReader(documentJSON(sn))); err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
		})
		if err != nil {
			return fmt.Errorf("onion: loopback POST %s: %w", sn.Document, err)
		}
		return nil
	}
	for _, sn := range set(2) {
		if err := loopPost(nodeOf(sn).url, sn, &loopT); err != nil {
			return err
		}
	}
	v["extract.us_per_doc"] = extractT.us()
	v["pipeline.ingest_self_us"] = pipelineT.us() - extractT.us() - engineT.us()
	v["server.write_self_us"] = handlerT.us() - pipelineT.us()
	lt.cfg.log("onion write path, mean us per document over %d: extract %.2f, engine ingest %.2f, AddDocumentStats %.2f, POST handler %.2f, loopback POST %.2f",
		per, extractT.us(), engineT.us(), pipelineT.us(), handlerT.us(), loopT.us())
	if t.router != nil {
		// A POST to the router, which relays it to the owning worker,
		// against the POST sent to that worker directly.
		for _, sn := range set(3) {
			if err := loopPost(t.url, sn, &relayT); err != nil {
				return err
			}
		}
		v["cluster.relay_self_us"] = relayT.us() - loopT.us()
		lt.cfg.log("onion routed loopback POST %.2f us", relayT.us())
	}
	return nil
}
