package retire

import "repro/internal/obs"

// Retirement lifecycle instrumentation. resident_stories is fed by the
// engine through Due on every alignment publish, so the gauge tracks the
// aligner's registered story count — the quantity retirement bounds.
var (
	metRetired = obs.GetCounter("storypivot_retire_retired_total",
		"stories retired to the cold archive")
	metReactivated = obs.GetCounter("storypivot_retire_reactivated_total",
		"archived stories reactivated by new evidence")
	metArchivedBytes = obs.GetCounter("storypivot_retire_archived_bytes_total",
		"bytes appended to the cold-story archive")
	metReactivateErrors = obs.GetCounter("storypivot_retire_reactivate_errors_total",
		"reactivations refused because an archived member failed to read back; the group stays archived")
	metResident = obs.GetGauge("storypivot_retire_resident_stories",
		"stories currently resident under alignment")
	metArchived = obs.GetGauge("storypivot_retire_archived_stories",
		"stories currently in the cold archive")
	metPasses = obs.GetCounter("storypivot_retire_passes_total",
		"retirement walks executed")
)
