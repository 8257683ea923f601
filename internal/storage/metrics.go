package storage

import "repro/internal/obs"

// Storage instrumentation: event-store append/replay throughput, the
// recovery counters that back Store.RecoveryWarnings, and the fsync,
// rotation and torn-tail counts of every framed log (event store, chunk
// store, feed DLQ, retirement archive).
var (
	metAppends = obs.GetCounter("storypivot_storage_appends_total",
		"snippets appended to the event log")
	metAppendBytes = obs.GetCounter("storypivot_storage_append_bytes_total",
		"framed bytes appended to the event log")
	metAppendLat = obs.GetHistogram("storypivot_storage_append_seconds",
		"per-snippet append latency (encode, write, policy sync)")
	metSyncs = obs.GetCounter("storypivot_storage_syncs_total",
		"fsyncs of the event store, chunk store, DLQ and archive logs")
	metRotations = obs.GetCounter("storypivot_storage_rotations_total",
		"segment rotations of the event store, DLQ and archive logs")
	metOpenLat = obs.GetHistogram("storypivot_storage_open_seconds",
		"store open latency including full replay")
	metReplayed = obs.GetCounter("storypivot_storage_replayed_records_total",
		"records replayed from segments at open")
	metReplayCorrupt = obs.GetCounter("storypivot_storage_replay_corrupt_records_total",
		"well-framed records skipped at replay because their payload failed to decode")
	metReplayTornBytes = obs.GetCounter("storypivot_storage_replay_torn_bytes_total",
		"torn-tail bytes truncated at open from the event store, chunk store, DLQ and archive logs")
)
