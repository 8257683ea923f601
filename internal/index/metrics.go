package index

import "repro/internal/obs"

// Instrumentation points of the query-serving index. The gauges reflect
// the most recently active index, which in a serving process is the
// only one.
var (
	metPublishes = obs.GetCounter("storypivot_index_publishes_total",
		"alignment results applied to the index")
	metStoriesUpdated = obs.GetCounter("storypivot_index_stories_updated_total",
		"member stories whose postings were (re)built at publish")
	metStoriesSkipped = obs.GetCounter("storypivot_index_stories_skipped_total",
		"member stories skipped at publish because their generation was unchanged")
	metStoriesRemoved = obs.GetCounter("storypivot_index_stories_removed_total",
		"stories whose postings were deleted because they left the alignment result")
	metQueries = obs.GetCounter("storypivot_index_queries_total",
		"queries answered from the index")
	metStoriesGauge = obs.GetGauge("storypivot_index_stories",
		"stories currently indexed")
	metLiveGauge = obs.GetGauge("storypivot_index_live_postings",
		"live postings across entity, term, and timeline lists")
	metPublishLat = obs.GetHistogram("storypivot_index_publish_seconds",
		"latency of applying one alignment result delta to the index")
	metQueryLat = obs.GetHistogram("storypivot_index_query_seconds",
		"index query evaluation latency")
)
