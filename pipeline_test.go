package storypivot

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/datagen"
)

func day(d int) time.Time { return time.Date(2014, 7, d, 0, 0, 0, 0, time.UTC) }

func mh17Docs() []*Document {
	return []*Document{
		{
			Source: "nyt", URL: "http://nytimes.com/doc1.html", Published: day(17),
			Title: "Jetliner Explodes over Ukraine",
			Body:  "A Malaysia Airlines Boeing 777 with 298 people aboard exploded, crashed and burned near Donetsk.\n\nPro-Russia separatists are suspected of shooting the plane down with a missile.",
		},
		{
			Source: "nyt", URL: "http://nytimes.com/doc2.html", Published: day(18),
			Title: "Evidence of Russian Links to Jet's Downing",
			Body:  "Officials leading the criminal investigation into the crash said the plane was shot down.\n\nUkraine asked the United Nations civil aviation authority to investigate the crash.",
		},
		{
			Source: "wsj", URL: "http://online.wsj.com/doc3.html", Published: day(17),
			Title: "Passenger Jet Felled over Ukraine",
			Body:  "The United States government has concluded that the passenger jet crashed after being shot down by a missile over Ukraine.",
		},
		{
			Source: "wsj", URL: "http://online.wsj.com/doc4.html", Published: day(18),
			Title: "Google Battles Yelp",
			Body:  "Google rival Yelp says the search giant is promoting its own content at the expense of users in search results.",
		},
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for _, d := range mh17Docs() {
		if _, err := p.AddDocument(d); err != nil {
			t.Fatalf("AddDocument(%s): %v", d.URL, err)
		}
	}
	srcs := p.Sources()
	if len(srcs) != 2 {
		t.Fatalf("Sources = %v", srcs)
	}
	// Crash story aligned across sources; Google story single-source.
	res := p.Result()
	multi := res.MultiSource()
	if len(multi) != 1 {
		t.Fatalf("MultiSource = %d, want 1 (got %d integrated total)", len(multi), len(res.Integrated()))
	}
	crash := multi[0]
	if got := crash.EntityFreq()["UKR"]; got == 0 {
		t.Error("crash story lost the UKR entity")
	}
	if len(res.Matches()) == 0 {
		t.Error("no match edges recorded")
	}
	// Per-source stories exist (Figure 5 module).
	if got := p.Stories("nyt"); len(got) == 0 {
		t.Error("no nyt stories")
	}
	// Queries.
	if hits := p.StoriesByEntity("UKR"); len(hits) == 0 || hits[0] != crash {
		t.Error("StoriesByEntity(UKR) did not rank the crash story first")
	}
	if hits := p.Search("plane crash investigation"); len(hits) == 0 || hits[0] != crash {
		t.Error("Search did not find the crash story")
	}
	if hits := p.Search(""); hits == nil || len(hits) != 0 {
		t.Error("empty search should return an empty (non-nil) slice")
	}
	tl := p.Timeline("UKR")
	if len(tl) < 2 {
		t.Fatalf("Timeline(UKR) = %d snippets", len(tl))
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].Timestamp.Before(tl[i-1].Timestamp) {
			t.Fatal("timeline not chronological")
		}
	}
	// Perspectives.
	pers := Perspectives(crash)
	if len(pers) != 2 {
		t.Fatalf("Perspectives = %v", pers)
	}
	for src, pv := range pers {
		if pv.Snippets == 0 || len(pv.TopTerms) == 0 {
			t.Errorf("perspective of %s empty: %+v", src, pv)
		}
		if pv.String() == "" {
			t.Errorf("perspective String empty for %s", src)
		}
	}
}

func TestPipelineClosedErrors(t *testing.T) {
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double close: %v", err)
	}
	if _, err := p.AddDocument(mh17Docs()[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("AddDocument after close: %v", err)
	}
	if err := p.Ingest(&Snippet{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Ingest after close: %v", err)
	}
}

func TestPipelinePersistenceAndReplay(t *testing.T) {
	dir := t.TempDir()
	p, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range mh17Docs() {
		if _, err := p.AddDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	wantMulti := len(p.Result().MultiSource())
	wantTotal := len(p.Result().Integrated())
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: state is rebuilt from the store.
	p2, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	res := p2.Result()
	if len(res.MultiSource()) != wantMulti || len(res.Integrated()) != wantTotal {
		t.Fatalf("replayed result %d/%d, want %d/%d",
			len(res.MultiSource()), len(res.Integrated()), wantMulti, wantTotal)
	}
	// Snippet lookup served from the store.
	if p2.Snippet(1) == nil {
		t.Error("persisted snippet not retrievable")
	}
	// New documents continue with fresh IDs (no duplicate-ID store errors).
	if _, err := p2.AddDocument(&Document{
		Source: "nyt", URL: "http://nytimes.com/doc9.html", Published: day(20),
		Title: "Sanctions Announced Against Russia",
		Body:  "The European Union and the United States announced expanded sanctions against Russia over the conflict in Ukraine.",
	}); err != nil {
		t.Fatalf("post-replay AddDocument: %v", err)
	}
}

func TestPipelineModesDiffer(t *testing.T) {
	gen := datagen.DefaultConfig()
	gen.Sources = 2
	gen.Stories = 6
	gen.EventsPerStory = 8
	corpus := datagen.Generate(gen)

	run := func(m Mode) int {
		p, err := New(WithMode(m))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		p.IngestAll(corpus.Snippets)
		return len(p.Result().Integrated())
	}
	// Both modes must produce a sane story count; exact equality is not
	// required (they are different algorithms).
	nT, nC := run(ModeTemporal), run(ModeComplete)
	if nT == 0 || nC == 0 {
		t.Fatalf("temporal=%d complete=%d", nT, nC)
	}
}

func TestPipelineOptionsApply(t *testing.T) {
	p, err := New(
		WithWindow(48*time.Hour),
		WithAttachThreshold(0.5),
		WithRepairEvery(10),
		WithSketchIndex(true),
		WithSketchFilter(true),
		WithAlignThreshold(0.5),
		WithAlignSlack(24*time.Hour),
		WithRefinement(true),
		WithAutoAlign(5),
		WithGazetteer(DefaultGazetteer()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, d := range mh17Docs() {
		if _, err := p.AddDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	if p.Engine() == nil {
		t.Fatal("Engine accessor nil")
	}
	if got := p.Result().Integrated(); len(got) == 0 {
		t.Fatal("no stories with all options enabled")
	}
}

func TestPipelineRemoveSource(t *testing.T) {
	p, _ := New()
	defer p.Close()
	for _, d := range mh17Docs() {
		p.AddDocument(d)
	}
	if !p.RemoveSource("wsj") {
		t.Fatal("RemoveSource = false")
	}
	if len(p.Result().MultiSource()) != 0 {
		t.Fatal("wsj stories survived removal")
	}
	if p.StoryOf("wsj", 1) != 0 {
		t.Fatal("StoryOf for removed source should be 0")
	}
}

func TestNilResultAccessors(t *testing.T) {
	var r *Result
	if r.Integrated() != nil || r.MultiSource() != nil || r.Matches() != nil || r.IntegratedOf(1) != nil {
		t.Fatal("nil Result accessors must return nil")
	}
}

func ExamplePipeline() {
	p, _ := New()
	defer p.Close()
	p.AddDocument(&Document{
		Source: "nyt", Published: time.Date(2014, 7, 17, 0, 0, 0, 0, time.UTC),
		Title: "Jetliner Explodes over Ukraine",
		Body:  "A Malaysian airplane crashed near Donetsk after being shot down.",
	})
	p.AddDocument(&Document{
		Source: "wsj", Published: time.Date(2014, 7, 17, 0, 0, 0, 0, time.UTC),
		Title: "Jet Felled over Ukraine",
		Body:  "A Malaysian passenger plane was shot down over eastern Ukraine.",
	})
	fmt.Println(len(p.Result().MultiSource()))
	// Output: 1
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"zero window", []Option{WithWindow(0)}},
		{"negative window", []Option{WithWindow(-time.Hour)}},
		{"threshold too high", []Option{WithAttachThreshold(1.5)}},
		{"threshold zero", []Option{WithAttachThreshold(0)}},
		{"bad align threshold", []Option{WithAlignThreshold(2)}},
		{"negative slack", []Option{WithAlignSlack(-time.Hour)}},
		// Tiering strips display text from resident snippets; with no store
		// to hydrate it from, responses would silently lose it.
		{"tiered without storage", []Option{WithTieredStorage(2, false)}},
		{"tier chunk rows without storage", []Option{WithTierChunkRows(8)}},
		{"tier cold cache without storage", []Option{WithTierColdCache(1, 2)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.opts...); err == nil {
				t.Fatalf("New accepted %s", c.name)
			}
		})
	}
	// Complete mode needs no window.
	p, err := New(WithMode(ModeComplete), WithWindow(0))
	if err != nil {
		t.Fatalf("complete mode with zero window rejected: %v", err)
	}
	p.Close()
}
