package storypivot

import (
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/experiments"
)

func TestPipelineTrending(t *testing.T) {
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	corpus := datagen.Generate(experiments.CorpusScale(1500, 4, 31))
	p.IngestAll(corpus.Snippets)
	p.Result()

	_, end := p.Engine().TimeRange()
	trends := p.Trending(end, 7*24*time.Hour)
	if len(trends) == 0 {
		t.Fatal("nothing trending at corpus end")
	}
	// Scores sorted descending; rows well-formed.
	for i, tr := range trends {
		if tr.Recent <= 0 || tr.Score <= 0 || tr.Story == nil {
			t.Fatalf("bad trend: %+v", tr)
		}
		if i > 0 && tr.Score > trends[i-1].Score {
			t.Fatal("trends not sorted by score")
		}
	}
	// Burst analysis on the top trending story runs without error.
	bursts := p.Bursts(trends[0].Story, DefaultTrendConfig())
	for _, b := range bursts {
		if !b.Start.Before(b.End) || b.Snippets <= 0 {
			t.Fatalf("bad burst: %+v", b)
		}
	}
	// Quiet point in time: nothing trends.
	if got := p.Trending(end.AddDate(2, 0, 0), 7*24*time.Hour); len(got) != 0 {
		t.Fatalf("far-future trending = %d", len(got))
	}
}
