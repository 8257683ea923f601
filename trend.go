package storypivot

import (
	"time"

	"repro/internal/trend"
)

// Trend analysis (paper §1's trend-detection application): burst
// detection over story activity and ranking of currently hot stories.

type (
	// Burst is one detected activity burst of a story.
	Burst = trend.Burst
	// Trend is one trending story with its burstiness score.
	Trend = trend.Trend
	// TrendConfig parameterises burst detection.
	TrendConfig = trend.Config
)

// DefaultTrendConfig returns the standard burst-detection settings.
func DefaultTrendConfig() TrendConfig { return trend.DefaultConfig() }

// Bursts detects activity bursts of one integrated story.
func (p *Pipeline) Bursts(is *IntegratedStory, cfg TrendConfig) []Burst {
	return trend.StoryBursts(is, cfg)
}

// Trending ranks the last published integrated stories by their activity
// inside [now−window, now] relative to their own history — the "what is
// hot right now" view for the casual-reader use case (paper §3).
func (p *Pipeline) Trending(now time.Time, window time.Duration) []Trend {
	return trend.Trending(p.engine.Published().Integrated, now, window, trend.DefaultConfig())
}
