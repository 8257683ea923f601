package storypivot_test

import (
	"fmt"
	"time"

	storypivot "repro"
)

func day(d int) time.Time { return time.Date(2014, 7, d, 0, 0, 0, 0, time.UTC) }

// The MH17 mini-corpus used across the examples.
func exampleDocs() []*storypivot.Document {
	return []*storypivot.Document{
		{Source: "nyt", URL: "http://nytimes.com/a", Published: day(17),
			Title: "Jetliner Explodes over Ukraine",
			Body:  "A Malaysia Airlines plane crashed over Ukraine after being shot down by a missile."},
		{Source: "wsj", URL: "http://wsj.com/b", Published: day(17),
			Title: "Passenger Plane Shot Down over Ukraine",
			Body:  "A Malaysia Airlines plane was shot down by a missile and crashed over Ukraine."},
		{Source: "nyt", URL: "http://nytimes.com/c", Published: day(18),
			Title: "Investigation of the Ukraine Crash Begins",
			Body:  "Officials investigating the crash over Ukraine said the plane was shot down."},
	}
}

// Building a pipeline, adding documents, and reading the cross-source
// result.
func ExampleNew() {
	p, _ := storypivot.New()
	defer p.Close()
	for _, d := range exampleDocs() {
		p.AddDocument(d)
	}
	res := p.Result()
	fmt.Printf("multi-source stories: %d\n", len(res.MultiSource()))
	// Output: multi-source stories: 1
}

// Free-text search over story vocabularies.
func ExamplePipeline_Search() {
	p, _ := storypivot.New()
	defer p.Close()
	for _, d := range exampleDocs() {
		p.AddDocument(d)
	}
	p.Result() // settle: queries read what the last settle published
	hits := p.Search("plane crash missile")
	fmt.Println(len(hits) > 0)
	// Output: true
}

// Chronological entity timelines for the casual-reader use case.
func ExamplePipeline_Timeline() {
	p, _ := storypivot.New()
	defer p.Close()
	for _, d := range exampleDocs() {
		p.AddDocument(d)
	}
	p.Result() // settle: queries read what the last settle published
	tl := p.Timeline("UKR")
	fmt.Println(len(tl) >= 3)
	// Output: true
}

// Contrasting how each source covers an aligned story.
func ExamplePerspectives() {
	p, _ := storypivot.New()
	defer p.Close()
	for _, d := range exampleDocs() {
		p.AddDocument(d)
	}
	multi := p.Result().MultiSource()
	if len(multi) == 0 {
		return
	}
	pers := storypivot.Perspectives(multi[0])
	fmt.Println(len(pers))
	// Output: 2
}

// Resolving a story's entities against the knowledge base (paper §3).
func ExamplePipeline_Context() {
	p, _ := storypivot.New(storypivot.WithKnowledgeBase(storypivot.SeedKnowledgeBase()))
	defer p.Close()
	for _, d := range exampleDocs() {
		p.AddDocument(d)
	}
	multi := p.Result().MultiSource()
	if len(multi) == 0 {
		return
	}
	ctx := p.Context(multi[0])
	for _, rec := range ctx.Known {
		if rec.ID == "UKR" {
			fmt.Println(rec.Label, "-", rec.Type)
		}
	}
	// Output: Ukraine - country
}

// Ranking sources by timeliness, coverage and exclusivity.
func ExamplePipeline_SourceProfiles() {
	p, _ := storypivot.New()
	defer p.Close()
	for _, d := range exampleDocs() {
		p.AddDocument(d)
	}
	p.Result() // settle: queries read what the last settle published
	for _, pr := range p.SourceProfiles() {
		fmt.Printf("%s: %d snippets\n", pr.Source, pr.Snippets)
	}
	// Output:
	// nyt: 4 snippets
	// wsj: 2 snippets
}
