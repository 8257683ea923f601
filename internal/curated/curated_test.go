package curated

import (
	"slices"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/eval"
	"repro/internal/event"
	"repro/internal/extract"
	"repro/internal/identify"
)

func TestCorpusWellFormed(t *testing.T) {
	docs := Corpus()
	if len(docs) < 15 {
		t.Fatalf("curated corpus has %d documents", len(docs))
	}
	urls := map[string]bool{}
	stories := map[uint64]int{}
	sources := map[event.SourceID]bool{}
	for _, d := range docs {
		if d.Doc.Source == "" || d.Doc.URL == "" || d.Doc.Title == "" || d.Doc.Body == "" || d.Doc.Published.IsZero() {
			t.Fatalf("incomplete document: %+v", d.Doc.URL)
		}
		if urls[d.Doc.URL] {
			t.Fatalf("duplicate URL %s", d.Doc.URL)
		}
		urls[d.Doc.URL] = true
		stories[d.Truth]++
		sources[d.Doc.Source] = true
	}
	if len(stories) != 5 {
		t.Fatalf("stories = %d, want 5", len(stories))
	}
	if len(sources) != 3 {
		t.Fatalf("sources = %d, want 3", len(sources))
	}
	for label, n := range stories {
		if n < 3 {
			t.Errorf("story %d has only %d documents", label, n)
		}
	}
}

func TestExtractionFindsCuratedEntities(t *testing.T) {
	x := extract.NewExtractor(Gazetteer())
	sns, truth := TruthBySnippet(x)
	if len(sns) < 30 {
		t.Fatalf("extracted %d snippets", len(sns))
	}
	if len(truth) != len(sns) {
		t.Fatalf("truth covers %d of %d", len(truth), len(sns))
	}
	// Every story's snippets must mention its anchor entity somewhere.
	anchors := map[uint64]event.Entity{
		StoryMH17:     "UKR",
		StoryGaza:     "GAZA",
		StoryEbola:    "EBOLA",
		StoryScotland: "SCO",
		StoryGoogle:   "GOOG",
	}
	found := map[uint64]bool{}
	for _, sn := range sns {
		if sn.HasEntity(anchors[truth[sn.ID]]) {
			found[truth[sn.ID]] = true
		}
	}
	for label, anchor := range anchors {
		if !found[label] {
			t.Errorf("story %d: anchor entity %s never extracted", label, anchor)
		}
	}
}

// TestCuratedPipelineQuality is the demo's curated-story comparison
// (paper §4.2): the full extraction + identification + alignment pipeline
// must reconstruct the five real-world stories with high fidelity.
func TestCuratedPipelineQuality(t *testing.T) {
	x := extract.NewExtractor(Gazetteer())
	sns, rawTruth := TruthBySnippet(x)
	slices.SortFunc(sns, event.CompareByTimestamp)

	// Curated story arcs span July–September with multi-week coverage
	// gaps; a 14-day window fragments them by design (that trade-off is
	// experiment E3). For sparse archival data the demo selects complete
	// mode — exactly the mode-choice interaction of paper §4.1.
	idCfg := identify.DefaultConfig()
	idCfg.Mode = identify.ModeComplete
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
	if prf.F1 < 0.7 {
		t.Fatalf("curated corpus F1 = %.3f (P=%.3f R=%.3f)", prf.F1, prf.Precision, prf.Recall)
	}
	// The five stories must not collapse into fewer than 4 integrated
	// stories nor shatter into more than 12.
	if n := len(res.Integrated); n < 4 || n > 12 {
		t.Fatalf("curated corpus produced %d integrated stories", n)
	}
	// MH17 coverage must align across at least 2 sources.
	srcCount := 0
	for _, is := range res.Integrated {
		hasMH17 := false
		for _, sn := range is.Snippets() {
			if truth[sn.ID] == StoryMH17 {
				hasMH17 = true
				break
			}
		}
		if hasMH17 && len(is.Sources()) > srcCount {
			srcCount = len(is.Sources())
		}
	}
	if srcCount < 2 {
		t.Fatalf("MH17 story aligned across %d sources", srcCount)
	}
}
