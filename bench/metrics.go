package main

import (
	"time"

	"repro/internal/obs"
)

// metric is one reported number; the lists below are the names and
// units BENCHMARK.json declares, in the order they are printed.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "1"},
	{"heap_mb", "MB"},
	{"f1_integrated", "ratio"},
}

// failedRatio is the ninth end-to-end metric, printed but not declared
// (see emit).
var failedRatio = metric{"failed_ratio", "ratio"}

var perLayer = []metric{
	{"extract.docs", "count"},
	{"extract.us_per_doc", "us"},
	{"storage.appends", "count"},
	{"storage.append_us", "us"},
	{"storage.bytes_per_snippet", "B"},
	{"identify.process_us", "us"},
	{"identify.comparisons_per_snippet", "1"},
	{"identify.stories", "count"},
	{"stream.ingest_self_us", "us"},
	{"stream.align_runs", "count"},
	{"stream.align_us", "us"},
	{"stream.align_busy_share", "ratio"},
	{"stream.visible_lag_us", "us"},
	{"stream.visible_lag_p99_us", "us"},
	{"align.self_us_per_run", "us"},
	{"align.upsert_us_per_run", "us"},
	{"align.result_us_per_run", "us"},
	{"align.refine_us_per_run", "us"},
	{"align.comparisons_per_run", "1"},
	{"align.refine_moves", "count"},
	{"align.integrated_stories", "count"},
	{"index.publish_us", "us"},
	{"index.skipped_ratio", "ratio"},
	{"index.search_us", "us"},
	{"index.entity_us", "us"},
	{"index.timeline_us", "us"},
	{"pipeline.query_self_us", "us"},
	{"pipeline.ingest_self_us", "us"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.evictions", "count"},
	{"qcache.invalidations_per_publish", "1"},
	{"qcache.invalidate_us", "us"},
	{"qcache.hit_us", "us"},
	{"server.miss_self_us", "us"},
	{"server.write_self_us", "us"},
	{"server.resp_bytes", "B"},
	{"server.allocs_per_miss", "1"},
	{"server.allocs_per_hit", "1"},
	{"httpx.stack_self_us", "us"},
	{"transport.self_us", "us"},
	{"cluster.read_self_us", "us"},
	{"cluster.relay_self_us", "us"},
	{"cluster.fanout", "1"},
	{"cluster.partial_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

// The program's own instrumentation (internal/obs), read as deltas over
// the measured phase. Numbers derived from these are program-reported:
// they compare two versions of the program only while the instrumented
// code is unchanged.
var (
	obsCounters = []string{
		"storypivot_pipeline_documents_total",
		"storypivot_storage_appends_total",
		"storypivot_storage_append_bytes_total",
		"storypivot_identify_processed_total",
		"storypivot_identify_comparisons_total",
		"storypivot_stream_align_runs_total",
		"storypivot_stream_refine_moves_total",
		"storypivot_align_comparisons_total",
		"storypivot_index_publishes_total",
		"storypivot_index_stories_updated_total",
		"storypivot_index_stories_skipped_total",
		"storypivot_cache_hits_total",
		"storypivot_cache_misses_total",
		"storypivot_cache_invalidations_total",
		"storypivot_cache_evictions_total",
		"storypivot_cluster_shard_requests_total",
		"storypivot_cluster_partial_responses_total",
	}
	obsHistograms = []string{
		"storypivot_storage_append_seconds",
		"storypivot_identify_process_seconds",
		"storypivot_identify_repair_seconds",
		"storypivot_stream_align_seconds",
		"storypivot_align_upsert_seconds",
		"storypivot_align_result_seconds",
		"storypivot_refine_seconds",
	}
)

// obsSnapshot is the instrumentation's state at one instant.
type obsSnapshot struct {
	counters map[string]uint64
	sums     map[string]time.Duration
	counts   map[string]uint64
}

func takeObs() obsSnapshot {
	s := obsSnapshot{
		counters: make(map[string]uint64, len(obsCounters)),
		sums:     make(map[string]time.Duration, len(obsHistograms)),
		counts:   make(map[string]uint64, len(obsHistograms)),
	}
	for _, n := range obsCounters {
		s.counters[n] = obs.GetCounter(n, "").Value()
	}
	for _, n := range obsHistograms {
		h := obs.GetHistogram(n, "").Snapshot()
		s.sums[n], s.counts[n] = h.Sum, h.Count
	}
	return s
}

// obsDelta is the instrumentation's movement between two snapshots.
type obsDelta struct{ from, to obsSnapshot }

func (d obsDelta) counter(name string) float64 {
	return float64(d.to.counters[name] - d.from.counters[name])
}

// sumUS is the time a histogram accumulated, in microseconds.
func (d obsDelta) sumUS(name string) float64 {
	return float64(d.to.sums[name]-d.from.sums[name]) / float64(time.Microsecond)
}

func (d obsDelta) count(name string) float64 {
	return float64(d.to.counts[name] - d.from.counts[name])
}

// ratio is a/b, or 0 when the workload never exercised the denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
