package feed

import "repro/internal/obs"

// Feed instrumentation. Counters aggregate across sources; the
// per-source breakdown is served live by GET /api/feeds.
var (
	metFetches = obs.GetCounter("storypivot_feed_fetches_total",
		"fetch attempts across all sources")
	metFetchErrors = obs.GetCounter("storypivot_feed_fetch_errors_total",
		"fetch attempts that failed (including timeouts and contained panics)")
	metRetries = obs.GetCounter("storypivot_feed_retries_total",
		"backoff sleeps taken before re-fetching a failing source")
	metSnippets = obs.GetCounter("storypivot_feed_snippets_total",
		"snippets accepted by the sink via feed ingest")
	metDuplicates = obs.GetCounter("storypivot_feed_duplicates_total",
		"redelivered snippets acknowledged as duplicates by the sink")
	metIngestErrs = obs.GetCounter("storypivot_feed_ingest_errors_total",
		"snippets the sink rejected (dead-lettered when a DLQ is attached)")
	metMalformed = obs.GetCounter("storypivot_feed_malformed_total",
		"fetched records that failed to decode (dead-lettered)")
	metBreakerOpens = obs.GetCounter("storypivot_feed_breaker_opens_total",
		"circuit-breaker open transitions")
	metCheckpoints = obs.GetCounter("storypivot_feed_checkpoints_total",
		"cursor checkpoints written")
	metAssignStarts = obs.GetCounter("storypivot_feed_assign_starts_total",
		"cluster-assigned runners started by Assign")
	metAssignStops = obs.GetCounter("storypivot_feed_assign_stops_total",
		"cluster-assigned runners stopped by Assign (drains and drops)")
	metInterimDrops = obs.GetCounter("storypivot_feed_interim_drops_total",
		"withdrawn interim tenures whose ingested data was removed")

	metRunners = obs.GetGauge("storypivot_feed_runners",
		"feed runner goroutines currently live")
	metHealthy = obs.GetGauge("storypivot_feed_sources_healthy",
		"sources currently healthy")
	metDegraded = obs.GetGauge("storypivot_feed_sources_degraded",
		"sources currently degraded (failing, breaker closed)")
	metQuarantined = obs.GetGauge("storypivot_feed_sources_quarantined",
		"sources currently quarantined by an open breaker")
	metAssigned = obs.GetGauge("storypivot_feed_assigned_runners",
		"runners currently under cluster assignment")
)
