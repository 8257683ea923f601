package main

import (
	"path/filepath"
	"sort"
	"time"

	"repro/internal/event"
)

// tracedBlock reports whether per-request spans are recorded during
// block n of the op sequence: traced and untraced blocks alternate
// through the measured phase of a traced run.
func tracedBlock(n int) bool { return n%2 == 0 }

// layerTrace turns a traced run into the per-layer metrics. They come
// from three places, all outside the program under test: spans recorded
// around public functions during the measured phase, the onion replay
// that follows it, and deltas of the program's own obs counters (the
// only program-reported numbers).
type layerTrace struct {
	cfg        runConfig
	f          *fixture
	tr         *tracer
	tally      *tally
	ph         *phase
	wall       time.Duration
	delta      obsDelta
	integrated [][]*event.IntegratedStory
}

func (lt *layerTrace) report(rep *report) error {
	v := rep.values
	for _, m := range perLayer {
		v[m.name] = 0 // a layer the workload bypasses reads 0
	}
	d := lt.delta
	t := lt.f.t
	engines := float64(max(len(t.nodes), 1))
	reads := float64(lt.tally.attempted - lt.f.writes)
	if lt.f.library() {
		reads = 0
	}

	// Counts, and the times the program reports about itself.
	runs := d.counter("storypivot_stream_align_runs_total")
	alignUS := d.sumUS("storypivot_stream_align_seconds")
	v["extract.docs"] = d.counter("storypivot_pipeline_documents_total")
	v["storage.appends"] = d.counter("storypivot_storage_appends_total")
	v["storage.bytes_per_snippet"] = ratio(d.counter("storypivot_storage_append_bytes_total"), v["storage.appends"])
	v["identify.comparisons_per_snippet"] = ratio(d.counter("storypivot_identify_comparisons_total"), d.counter("storypivot_identify_processed_total"))
	v["identify.stories"] = float64(lt.perSourceStories())
	v["stream.align_runs"] = runs
	v["stream.align_us"] = ratio(alignUS, runs)
	v["stream.align_busy_share"] = ratio(alignUS, float64(lt.wall.Microseconds())*engines)
	v["align.upsert_us_per_run"] = ratio(d.sumUS("storypivot_align_upsert_seconds"), runs)
	v["align.result_us_per_run"] = ratio(d.sumUS("storypivot_align_result_seconds"), runs)
	v["align.refine_us_per_run"] = ratio(d.sumUS("storypivot_refine_seconds"), runs)
	v["align.comparisons_per_run"] = ratio(d.counter("storypivot_align_comparisons_total"), runs)
	v["align.refine_moves"] = d.counter("storypivot_stream_refine_moves_total")
	stories := 0
	for _, shard := range lt.integrated {
		stories += len(shard)
	}
	v["align.integrated_stories"] = float64(stories)
	skipped := d.counter("storypivot_index_stories_skipped_total")
	v["index.skipped_ratio"] = ratio(skipped, skipped+d.counter("storypivot_index_stories_updated_total"))
	hits := d.counter("storypivot_cache_hits_total")
	v["qcache.hit_ratio"] = ratio(hits, hits+d.counter("storypivot_cache_misses_total"))
	v["qcache.evictions"] = d.counter("storypivot_cache_evictions_total")
	v["qcache.invalidations_per_publish"] = ratio(d.counter("storypivot_cache_invalidations_total"), d.counter("storypivot_index_publishes_total"))
	v["server.resp_bytes"] = ratio(float64(lt.tally.respBytes), float64(lt.tally.reads200))
	if t.router != nil {
		v["cluster.fanout"] = ratio(d.counter("storypivot_cluster_shard_requests_total"), reads)
		v["cluster.partial_ratio"] = ratio(d.counter("storypivot_cluster_partial_responses_total"), reads)
	}
	lt.cfg.log("program-reported: storage append %.2f us, align %.0f us/run over %.0f runs",
		ratio(d.sumUS("storypivot_storage_append_seconds"), d.count("storypivot_storage_append_seconds")), v["stream.align_us"], runs)

	// The onion replay, then the spans, whose attribution needs the
	// replay's uncontended transport cost.
	measured := lt.tr.recorded()
	if err := lt.onion(v); err != nil {
		return err
	}
	lt.spanMetrics(v, measured, v["transport.self_us"])
	v["trace.overhead_ratio"] = lt.overhead()
	return lt.tr.write(filepath.Join(lt.cfg.outDir, lt.cfg.workload+".trace.json"), lt.tr.recorded())
}

// perSourceStories counts the per-source stories identification holds.
func (lt *layerTrace) perSourceStories() int {
	t := lt.f.t
	n := 0
	if t.pipe != nil {
		for _, src := range t.pipe.Sources() {
			n += len(t.pipe.Stories(src))
		}
	}
	for _, nd := range t.nodes {
		p := nd.srv.Pipeline()
		for _, src := range p.Sources() {
			n += len(p.Stories(src))
		}
	}
	return n
}

// overhead compares each untraced block of the measured phase with the
// traced blocks on either side of it: the median, over untraced blocks,
// of the neighbours' mean duration over the block's own is how much
// longer the traced work took. A block lasts from the last completion of
// the block before it to its own last completion. Neighbours are
// compared because the work per op drifts along a run (settles grow with
// the corpus), and two separate runs cannot show the cost at all: the
// sandbox's speed differs more from one run to the next than tracing
// costs.
func (lt *layerTrace) overhead() float64 {
	ph := lt.ph
	var durations []float64
	var prev int64
	for b := 0; (b+1)*ph.block <= len(ph.doneAt); b++ {
		end := prev
		for _, at := range ph.doneAt[b*ph.block : (b+1)*ph.block] {
			end = max(end, at)
		}
		durations = append(durations, float64(end-prev))
		prev = end
	}
	var ratios []float64
	for b := 1; b+1 < len(durations); b++ {
		if !tracedBlock(b) && durations[b] > 0 {
			ratios = append(ratios, (durations[b-1]+durations[b+1])/2/durations[b])
		}
	}
	if len(ratios) == 0 {
		return 1
	}
	return median(ratios)
}

// interval is a half-open span of trace time.
type interval struct{ start, end int64 }

// intervalSet is a sorted union of disjoint intervals with prefix sums,
// for asking how much of a span a set of spans covers.
type intervalSet struct {
	iv  []interval
	cum []int64 // cum[i] is the length of iv[:i]
}

func unionOf(ivs []interval) *intervalSet {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	s := &intervalSet{}
	for _, iv := range ivs {
		if iv.end <= iv.start {
			continue
		}
		if n := len(s.iv); n > 0 && iv.start <= s.iv[n-1].end {
			if iv.end > s.iv[n-1].end {
				s.iv[n-1].end = iv.end
			}
			continue
		}
		s.iv = append(s.iv, iv)
	}
	s.cum = make([]int64, len(s.iv)+1)
	for i, iv := range s.iv {
		s.cum[i+1] = s.cum[i] + iv.end - iv.start
	}
	return s
}

// covered returns how much of [start, end) the set covers.
func (s *intervalSet) covered(start, end int64) int64 {
	before := func(x int64) int64 { // covered length left of x
		i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].end > x })
		c := s.cum[i]
		if i < len(s.iv) && s.iv[i].start < x {
			c += x - s.iv[i].start
		}
		return c
	}
	if end <= start {
		return 0
	}
	return before(end) - before(start)
}

func meanUS(total int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / 1e3
}

// spanMetrics derives the span-based metrics from the traced blocks.
//
// An alignment pass has no public boundary of its own: it runs inside
// whichever call found the engine dirty. Its span is reconstructed from
// the outside: it ends when the last sink of its publish returns, and
// it began when the call that ran it began, which is the earliest call
// on that engine still in flight at the publish (every call, read or
// write, takes the engine mutex, so later arrivals queue behind it), or
// when the previous pass ended if that call was already waiting then.
func (lt *layerTrace) spanMetrics(v map[string]float64, spans []span, transportUS float64) {
	id := lt.tr.name // a name no span carries simply matches nothing
	publish, invalidate := id("index.publish"), id("qcache.invalidate")
	clientOp, batch, ingest, result := id("client.op"), id("client.batch"), id("pipeline.ingest"), id("pipeline.result")
	front := id("server.handler")
	if lt.f.t.router != nil {
		front = id("router.handler")
	}

	// Sinks, and the calls that can carry an alignment pass, per engine.
	shards := max(len(lt.f.t.nodes), 1)
	publishes := make([][]span, shards)
	markers := make([][]span, shards)
	callers := make([][]span, shards)
	var publishNS, invalidateNS int64
	var publishN, invalidateN int
	for _, s := range spans {
		switch {
		case s.name == publish:
			publishes[s.shard] = append(publishes[s.shard], s)
			publishNS += s.end - s.start
			publishN++
		case s.name == invalidate:
			markers[s.shard] = append(markers[s.shard], s)
			invalidateNS += s.end - s.start
			invalidateN++
		case s.name == result:
			callers[0] = append(callers[0], s)
		case s.shard >= 0 && s.name != front:
			callers[s.shard] = append(callers[s.shard], s) // a server's or worker's handler
		case s.name == front && lt.f.t.router == nil:
			callers[0] = append(callers[0], s)
		}
	}
	v["index.publish_us"] = meanUS(publishNS, publishN)
	v["qcache.invalidate_us"] = meanUS(invalidateNS, invalidateN)

	var aligns []interval
	var alignNS, sinkNS int64
	for sh := 0; sh < shards; sh++ {
		sort.Slice(publishes[sh], func(i, j int) bool { return publishes[sh][i].start < publishes[sh][j].start })
		sort.Slice(callers[sh], func(i, j int) bool { return callers[sh][i].start < callers[sh][j].start })
		markerAt := make(map[int64]span, len(markers[sh]))
		for _, m := range markers[sh] {
			markerAt[m.start] = m
		}
		var prevEnd int64
		for _, p := range publishes[sh] {
			end, sinks := p.end, p.end-p.start
			if m, ok := markerAt[p.end]; ok {
				end, sinks = m.end, sinks+m.end-m.start
			}
			// The earliest caller in flight at the publish. Few calls are
			// ever in flight at once, so a short scan back from the publish
			// finds them all.
			start := p.start
			hi := sort.Search(len(callers[sh]), func(i int) bool { return callers[sh][i].start >= p.start })
			for i := hi - 1; i >= 0 && i >= hi-64; i-- {
				if c := callers[sh][i]; c.end >= p.end && c.start < start {
					start = c.start
				}
			}
			if start == p.start {
				// The pass ran in an untraced block: its caller's span was
				// not recorded, and neither was any op it stalled.
				prevEnd = end
				continue
			}
			if start < prevEnd {
				start = prevEnd
			}
			prevEnd = end
			aligns = append(aligns, interval{start, end})
			alignNS += end - start
			sinkNS += sinks
		}
	}
	v["align.self_us_per_run"] = meanUS(alignNS-sinkNS, len(aligns))
	stalled := unionOf(aligns)

	// Op time and where it went.
	var opNS, alignedNS, stackNS, transportNS int64
	var ops int
	if lt.f.library() {
		for _, s := range spans {
			switch s.name {
			case batch:
				opNS += s.end - s.start
			case ingest, result:
				// Ingest waits for the engine mutex too, behind the other
				// client's alignment pass.
				a := stalled.covered(s.start, s.end)
				alignedNS += a
				stackNS += s.end - s.start - a
			}
		}
	} else {
		handlerOf := make(map[int32]span)
		for _, s := range spans {
			if s.name == front && s.op >= 0 {
				handlerOf[s.op] = s
			}
		}
		for _, s := range spans {
			if s.name != clientOp {
				continue
			}
			h, ok := handlerOf[s.op]
			if !ok {
				continue // the tracing state flipped between client and server
			}
			ops++
			opNS += s.end - s.start
			a := stalled.covered(h.start, h.end)
			alignedNS += a
			stackNS += h.end - h.start - a
			transportNS += (s.end - s.start) - (h.end - h.start)
		}
	}
	// Transport is explained only up to its uncontended cost from the
	// onion; what the client waited beyond that (run queues, GC, the
	// generator's own scheduling) is the unattributed remainder.
	if explained := int64(transportUS * 1e3 * float64(ops)); transportNS > explained {
		transportNS = explained
	}
	attributed := alignedNS + stackNS + transportNS
	if opNS > 0 {
		v["trace.unattributed_share"] = max(0, 1-float64(attributed)/float64(opNS))
		lt.cfg.log("op time: %.1f%% alignment (running or queued behind it), %.1f%% serving stack or ingest, %.1f%% transport",
			100*float64(alignedNS)/float64(opNS), 100*float64(stackNS)/float64(opNS), 100*float64(transportNS)/float64(opNS))
	}

	// Visible lag: from a write being sent to the first read sent after
	// its ack having returned. On ingest-stream it is the workload's own
	// latency, a snippet's ingest-to-queryable lag.
	var lags []int64
	if lt.f.library() {
		for _, l := range lt.ph.lat {
			if l > 0 {
				lags = append(lags, l)
			}
		}
	} else {
		var readOps []span
		for _, s := range spans {
			if s.name == clientOp && lt.f.ops[s.op].kind != opWrite {
				readOps = append(readOps, s)
			}
		}
		sort.Slice(readOps, func(i, j int) bool { return readOps[i].start < readOps[j].start })
		for _, s := range spans {
			if s.name != clientOp || lt.f.ops[s.op].kind != opWrite {
				continue
			}
			i := sort.Search(len(readOps), func(i int) bool { return readOps[i].start >= s.end })
			if i < len(readOps) {
				lags = append(lags, readOps[i].end-s.start)
			}
		}
	}
	sorted := sortedCopy(lags)
	var sum int64
	for _, l := range sorted {
		sum += l
	}
	v["stream.visible_lag_us"] = meanUS(sum, len(sorted))
	v["stream.visible_lag_p99_us"] = float64(percentile(sorted, 99)) / 1e3
}
