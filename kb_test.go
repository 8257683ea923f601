package storypivot

import (
	"strings"
	"testing"
	"time"
)

func TestPipelineWithKnowledgeBase(t *testing.T) {
	p, err := New(WithKnowledgeBase(SeedKnowledgeBase()), WithRefinement(false))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for _, d := range mh17Docs() {
		if _, err := p.AddDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	if p.KnowledgeBase() == nil {
		t.Fatal("KnowledgeBase() nil after WithKnowledgeBase")
	}
	multi := p.Result().MultiSource()
	if len(multi) == 0 {
		t.Fatal("no multi-source story")
	}
	ctx := p.Context(multi[0])
	if ctx == nil || len(ctx.Known) == 0 {
		t.Fatalf("Context = %+v", ctx)
	}
	// The KB-derived gazetteer annotated Ukraine.
	foundUKR := false
	for _, r := range ctx.Known {
		if r.ID == "UKR" {
			foundUKR = true
			if r.Abstract == "" {
				t.Error("UKR record has no abstract")
			}
		}
	}
	if !foundUKR {
		t.Fatalf("UKR not in story context: %+v", ctx.Known)
	}
	if p.Context(nil) != nil {
		t.Error("Context(nil) should be nil")
	}
}

func TestPipelineWithoutKBContextNil(t *testing.T) {
	p, _ := New()
	defer p.Close()
	p.AddDocument(mh17Docs()[0])
	if p.Context(p.Result().Integrated()[0]) != nil {
		t.Fatal("Context without KB should be nil")
	}
	if p.KnowledgeBase() != nil {
		t.Fatal("KnowledgeBase without option should be nil")
	}
}

func TestLoadKnowledgeBaseJSONL(t *testing.T) {
	jsonl := `{"id":"ACME","label":"Acme Corp","type":"company","aliases":["acme corporation"]}`
	k, n, err := LoadKnowledgeBase(strings.NewReader(jsonl))
	if err != nil || n != 1 {
		t.Fatalf("load: n=%d err=%v", n, err)
	}
	p, err := New(WithKnowledgeBase(k))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sns, err := p.AddDocument(&Document{
		Source: "wire", Published: time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC),
		Title: "Acme Corporation Announces Layoffs",
		Body:  "Acme Corp said it would cut jobs across its divisions.",
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sn := range sns {
		if sn.HasEntity("ACME") {
			found = true
		}
	}
	if !found {
		t.Fatal("KB-derived gazetteer did not annotate ACME")
	}
}

func TestSourceProfilesFromPipeline(t *testing.T) {
	p, _ := New()
	defer p.Close()
	for _, d := range mh17Docs() {
		p.AddDocument(d)
	}
	p.Result()
	profiles := p.SourceProfiles()
	if len(profiles) != 2 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	if profiles[0].Source != "nyt" || profiles[1].Source != "wsj" {
		t.Fatalf("profiles not sorted: %v, %v", profiles[0].Source, profiles[1].Source)
	}
	for _, pr := range profiles {
		if pr.Snippets == 0 || pr.Stories == 0 {
			t.Errorf("empty profile: %+v", pr)
		}
	}
	ranked := p.RankedSources()
	if len(ranked) != 2 {
		t.Fatalf("ranked = %d", len(ranked))
	}
}
