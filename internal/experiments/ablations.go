package experiments

import (
	"slices"
	"time"

	"repro/internal/align"
	"repro/internal/curated"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/event"
	"repro/internal/extract"
	"repro/internal/identify"
	"repro/internal/similarity"
)

// Ablations isolate the design choices DESIGN.md calls out beyond the
// paper's own experiments: the similarity weight mix, IDF entity
// weighting, and the alignment selectivity ladder (raw threshold edges →
// reciprocal best match → reciprocal + component guard).

// AblationRow is one ablation measurement.
type AblationRow struct {
	Study     string
	Variant   string
	F1        float64
	Precision float64
	Recall    float64
	Biggest   int // largest integrated story (chaining indicator)
}

// AblationConfig parameterises the ablation suite.
type AblationConfig struct {
	Size    int
	Sources int
	Seed    int64
}

// DefaultAblations runs at a scale where chaining effects are visible.
func DefaultAblations() AblationConfig { return AblationConfig{Size: 6000, Sources: 8, Seed: 11} }

// RunAblations executes all ablation studies.
func RunAblations(cfg AblationConfig) []AblationRow {
	corpus := datagen.Generate(CorpusScale(cfg.Size, cfg.Sources, cfg.Seed))
	truth := TruthAssignment(corpus)
	var rows []AblationRow

	// Study 1: similarity weight mix for identification.
	for _, v := range []struct {
		name string
		w    similarity.Weights
	}{
		{"default(0.45/0.35/0.20)", similarity.DefaultWeights()},
		{"entity-only", similarity.Weights{Entity: 1}},
		{"description-only", similarity.Weights{Description: 1}},
		{"no-temporal", similarity.Weights{Entity: 0.55, Description: 0.45}},
	} {
		idCfg := identify.DefaultConfig()
		idCfg.Weights = v.w
		ids := identify.RunAll(corpus.Snippets, idCfg, nil)
		rows = append(rows, AblationRow{
			Study:   "identify-weights",
			Variant: v.name,
			F1:      PerSourceF1(ids, truth),
		})
	}

	// Study 2: IDF entity weighting on/off (identification + alignment).
	for _, idf := range []bool{true, false} {
		idCfg := identify.DefaultConfig()
		idCfg.UseEntityIDF = idf
		ids := identify.RunAll(corpus.Snippets, idCfg, nil)
		alCfg := align.DefaultConfig()
		alCfg.UseEntityIDF = idf
		res := align.Align(identify.StoriesBySource(ids), alCfg)
		pred := eval.FromIntegrated(res.Integrated)
		prf := eval.Pairwise(pred, truth)
		name := "idf-off"
		if idf {
			name = "idf-on"
		}
		rows = append(rows, AblationRow{
			Study: "entity-idf", Variant: name,
			F1: prf.F1, Precision: prf.Precision, Recall: prf.Recall,
			Biggest: biggestComponent(res),
		})
	}

	// Study 2b: bigram description terms, evaluated on the curated corpus
	// (the only workload with real text to extract from). A negative
	// result worth keeping visible: bigrams rarely repeat across
	// differently-worded reports of the same event, so they add vector
	// norm without adding matches and *reduce* recall — which is why
	// extraction defaults to unigrams.
	for _, bigrams := range []bool{false, true} {
		x := extract.NewExtractor(curated.Gazetteer())
		x.Bigrams = bigrams
		sns, rawTruth := curated.TruthBySnippet(x)
		slices.SortFunc(sns, event.CompareByTimestamp)
		idCfg := identify.DefaultConfig()
		idCfg.Mode = identify.ModeComplete
		cids := identify.RunAll(sns, idCfg, nil)
		alCfg := align.DefaultConfig()
		alCfg.Slack = 60 * 24 * time.Hour
		cres := align.Align(identify.StoriesBySource(cids), alCfg)
		ctruth := eval.Assignment{}
		for id, l := range rawTruth {
			ctruth[id] = l
		}
		prf := eval.Pairwise(eval.FromIntegrated(cres.Integrated), ctruth)
		name := "unigrams"
		if bigrams {
			name = "unigrams+bigrams"
		}
		rows = append(rows, AblationRow{
			Study: "extraction-terms", Variant: name,
			F1: prf.F1, Precision: prf.Precision, Recall: prf.Recall,
			Biggest: biggestComponent(cres),
		})
	}

	// Study 3: alignment selectivity ladder. "raw" disables both the
	// reciprocal filter (by treating every edge as mutual — approximated
	// with guard off and threshold unchanged) and the component guard;
	// the ladder shows how each mechanism suppresses chaining.
	ids := identify.RunAll(corpus.Snippets, identify.DefaultConfig(), nil)
	bySource := identify.StoriesBySource(ids)
	for _, v := range []struct {
		name  string
		guard float64
	}{
		{"reciprocal-no-guard", 0},
		{"reciprocal+guard", align.DefaultConfig().ComponentGuard},
		{"reciprocal+strict-guard", 1.2},
	} {
		alCfg := align.DefaultConfig()
		alCfg.ComponentGuard = v.guard
		res := align.Align(bySource, alCfg)
		pred := eval.FromIntegrated(res.Integrated)
		prf := eval.Pairwise(pred, truth)
		rows = append(rows, AblationRow{
			Study: "align-selectivity", Variant: v.name,
			F1: prf.F1, Precision: prf.Precision, Recall: prf.Recall,
			Biggest: biggestComponent(res),
		})
	}
	return rows
}

func biggestComponent(res *align.Result) int {
	biggest := 0
	for _, is := range res.Integrated {
		if is.Len() > biggest {
			biggest = is.Len()
		}
	}
	return biggest
}

// AblationTable renders the rows.
func AblationTable(rows []AblationRow) *Table {
	t := &Table{
		Title:   "Ablations: design choices beyond the paper's experiments",
		Headers: []string{"study", "variant", "F1", "precision", "recall", "biggest story"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []any{r.Study, r.Variant, r.F1, r.Precision, r.Recall, r.Biggest})
	}
	return t
}
