package experiments

import (
	"slices"
	"time"

	"repro/internal/align"
	"repro/internal/curated"
	"repro/internal/eval"
	"repro/internal/event"
	"repro/internal/extract"
	"repro/internal/identify"
)

// CuratedRow is one configuration's quality on the hand-curated corpus
// (paper §4.2's "manually curated stories taken from well-known news
// providers").
type CuratedRow struct {
	Config     string
	F1         float64
	Precision  float64
	Recall     float64
	ARI        float64
	Integrated int
}

// RunCurated evaluates the full extraction→identification→alignment
// pipeline on the curated 2014 corpus under the demo's selectable
// configurations. The curated arcs span months with multi-week coverage
// gaps, so this experiment also demonstrates when complete-history
// identification is the right choice (sparse archival data) versus the
// streaming default.
func RunCurated() []CuratedRow {
	var rows []CuratedRow
	for _, v := range []struct {
		name   string
		mode   identify.Mode
		window time.Duration
	}{
		{"temporal ω=14d", identify.ModeTemporal, 14 * 24 * time.Hour},
		{"temporal ω=60d", identify.ModeTemporal, 60 * 24 * time.Hour},
		{"complete", identify.ModeComplete, 0},
	} {
		x := extract.NewExtractor(curated.Gazetteer())
		sns, rawTruth := curated.TruthBySnippet(x)
		slices.SortFunc(sns, event.CompareByTimestamp)

		idCfg := identify.DefaultConfig()
		idCfg.Mode = v.mode
		if v.window > 0 {
			idCfg.Window = v.window
		}
		ids := identify.RunAll(sns, idCfg, nil)
		alCfg := align.DefaultConfig()
		alCfg.Slack = 60 * 24 * time.Hour
		res := align.Align(identify.StoriesBySource(ids), alCfg)

		truth := eval.Assignment{}
		for id, l := range rawTruth {
			truth[id] = l
		}
		pred := eval.FromIntegrated(res.Integrated)
		prf := eval.Pairwise(pred, truth)
		rows = append(rows, CuratedRow{
			Config:     v.name,
			F1:         prf.F1,
			Precision:  prf.Precision,
			Recall:     prf.Recall,
			ARI:        eval.ARI(pred, truth),
			Integrated: len(res.Integrated),
		})
	}
	return rows
}

// CuratedTable renders the rows.
func CuratedTable(rows []CuratedRow) *Table {
	t := &Table{
		Title:   "Curated 2014 corpus (paper §4.2): 5 real stories, 3 sources, 22 documents",
		Headers: []string{"config", "F1", "precision", "recall", "ARI", "integrated"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []any{r.Config, r.F1, r.Precision, r.Recall, r.ARI, r.Integrated})
	}
	return t
}
