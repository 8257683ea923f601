package align

import "repro/internal/obs"

// Alignment and refinement instrumentation. Comparison counters are
// batched per Upsert/Result call rather than incremented inside the
// scoring loops.
var (
	metUpsertLat = obs.GetHistogram("storypivot_align_upsert_seconds",
		"per-story aligner upsert latency (incremental edge recompute)")
	metResultLat = obs.GetHistogram("storypivot_align_result_seconds",
		"integrated-result construction latency")
	metComparisons = obs.GetCounter("storypivot_align_comparisons_total",
		"full story-story similarity evaluations")
	metMatches = obs.GetCounter("storypivot_align_matches_total",
		"story pairs scoring above the match threshold")
	metSketchSkipped = obs.GetCounter("storypivot_align_sketch_skipped_total",
		"candidate pairs rejected by the MinHash pre-filter")
	metRefineLat = obs.GetHistogram("storypivot_refine_seconds",
		"refinement pass latency")
	metRefineRuns = obs.GetCounter("storypivot_refine_runs_total",
		"refinement passes executed")
	metRefineScores = obs.GetCounter("storypivot_refine_scores_total",
		"snippet-story scores computed by refinement (home and candidate)")
)
