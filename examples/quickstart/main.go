// Quickstart: feed a handful of news documents from two newspapers into
// StoryPivot and watch story identification group them per source and
// story alignment integrate them across sources — the paper's running
// MH17 example.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	storypivot "repro"
)

func day(d int) time.Time { return time.Date(2014, 7, d, 0, 0, 0, 0, time.UTC) }

func main() {
	p, err := storypivot.New(
		storypivot.WithRefinement(true),
		storypivot.WithKnowledgeBase(storypivot.SeedKnowledgeBase()),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()

	docs := []*storypivot.Document{
		{
			Source: "nyt", URL: "http://nytimes.com/doc1.html", Published: day(17),
			Title: "Jetliner Explodes over Ukraine",
			Body: "A Malaysia Airlines Boeing 777 with 298 people aboard exploded and crashed " +
				"over Ukraine after being shot down near Donetsk.\n\nThe plane crashed over Ukrainian " +
				"territory controlled by pro-Russia separatists and officials believe a missile shot it down.",
		},
		{
			Source: "nyt", URL: "http://nytimes.com/doc2.html", Published: day(18),
			Title: "Evidence of Russian Links to Jet's Downing",
			Body: "Officials leading the criminal investigation into the crash over Ukraine said " +
				"the plane was shot down by a missile.\n\nUkraine asked the United Nations civil " +
				"aviation authority to join the investigation of the crash.",
		},
		{
			Source: "wsj", URL: "http://online.wsj.com/doc3.html", Published: day(17),
			Title: "Passenger Jet Shot Down over Ukraine",
			Body: "The United States government concluded that the passenger plane that crashed " +
				"over Ukraine was shot down by a surface-to-air missile.",
		},
		{
			Source: "wsj", URL: "http://online.wsj.com/doc4.html", Published: day(18),
			Title: "Google Battles Yelp",
			Body: "Google rival Yelp says the search giant is promoting its own content at the expense " +
				"of users, as Google battles antitrust scrutiny.",
		},
	}
	for _, d := range docs {
		snippets, err := p.AddDocument(d)
		if err != nil {
			log.Fatalf("adding %s: %v", d.URL, err)
		}
		fmt.Printf("extracted %d snippets from %s\n", len(snippets), d.URL)
	}

	fmt.Println("\n-- stories per source (story identification, Figure 5) --")
	for _, src := range p.Sources() {
		for _, st := range p.Stories(src) {
			fmt.Printf("  %s\n", st)
			for _, e := range st.TopEntities(4) {
				fmt.Printf("    {%s,%d}", e.Entity, e.Count)
			}
			fmt.Println()
		}
	}

	fmt.Println("\n-- integrated stories (story alignment, Figures 4/6) --")
	for _, is := range p.IntegratedStories() {
		fmt.Printf("  %s\n", is)
		for _, sn := range is.Snippets() {
			fmt.Printf("    [%s] %s (%s)\n", is.Roles[sn.ID], sn, firstWords(sn.Text, 6))
		}
	}

	// Queries read what the last settle (Result, Align) published.
	p.Result()
	fmt.Println("\n-- query: timeline of UKR --")
	for _, sn := range p.Timeline("UKR") {
		fmt.Printf("  %s  %s: %s\n", sn.Timestamp.Format("2006-01-02"), sn.Source, firstWords(sn.Text, 8))
	}

	// Knowledge-base context (paper §3: DBpedia-style enrichment).
	fmt.Println("\n-- knowledge-base context of the aligned story --")
	if multi := p.Result().MultiSource(); len(multi) > 0 {
		ctx := p.Context(multi[0])
		for _, rec := range ctx.Known {
			fmt.Printf("  %-8s %-12s %s\n", rec.ID, "("+rec.Type+")", rec.Abstract)
		}
		for _, link := range ctx.Links {
			fmt.Printf("  relation: %s --%s--> %s\n", link.Subject, link.Predicate, link.Object)
		}
	}
}

func firstWords(s string, n int) string {
	out, count := "", 0
	for i, r := range s {
		if r == ' ' {
			count++
			if count == n {
				return s[:i] + "..."
			}
		}
	}
	if out == "" {
		return s
	}
	return out
}
