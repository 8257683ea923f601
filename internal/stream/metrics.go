package stream

import (
	"time"

	"repro/internal/obs"
)

// Instrumentation points of the live pipeline. Counters and histograms
// are process-global (registered in obs.Default); the gauges reflect
// the most recently active engine, which in a serving process is the
// only one.
var (
	metIngested = obs.GetCounter("storypivot_stream_ingested_total",
		"snippets accepted by the stream engine")
	metDuplicates = obs.GetCounter("storypivot_stream_duplicates_total",
		"snippets rejected as redeliveries: their source's identifier already assigned them")
	metInvalid = obs.GetCounter("storypivot_stream_invalid_total",
		"snippets rejected by validation")
	metAlignRuns = obs.GetCounter("storypivot_stream_align_runs_total",
		"dirty-story re-alignment passes executed")
	metRefineMoves = obs.GetCounter("storypivot_stream_refine_moves_total",
		"snippet moves applied by post-alignment refinement")
	metSourcesGauge = obs.GetGauge("storypivot_stream_sources",
		"registered data sources")
	metDirtyGauge = obs.GetGauge("storypivot_stream_dirty_stories",
		"stories awaiting re-alignment, repair-touched ones included")
	metIngestLat = obs.GetHistogram("storypivot_stream_ingest_seconds",
		"per-snippet ingest latency through identification")
	metAlignLat = obs.GetHistogram("storypivot_stream_align_seconds",
		"dirty-story re-alignment pass latency")
	metRestoreOK = obs.GetCounter("storypivot_stream_checkpoint_restores_total",
		"engines rebuilt from a checkpoint fast path")
	metRestoreFail = obs.GetCounter("storypivot_stream_checkpoint_restore_failures_total",
		"checkpoint restores that failed and fell back to replay")
	metRetireArchiveErrors = obs.GetCounter("storypivot_stream_retire_archive_errors_total",
		"retirement passes aborted by an archive write failure")
)

// AlignMean is the mean latency of the alignment passes (settles) this
// process has run, over every engine: the statistics module's align time.
func AlignMean() time.Duration { return metAlignLat.Snapshot().Mean() }
