package main

import (
	"slices"
	"testing"
	"time"

	storypivot "repro"
	"repro/internal/event"
)

func TestLargestFirstLeavesInputOrder(t *testing.T) {
	story := func(id event.StoryID, snippets int) *event.Story {
		st := event.NewStory(id, "nyt")
		for i := 0; i < snippets; i++ {
			st.Add(&event.Snippet{ID: event.SnippetID(int(id)*10 + i), Source: "nyt",
				Timestamp: time.Unix(int64(i), 0), Entities: []event.Entity{"UKR"}})
		}
		return st
	}
	var in []*storypivot.IntegratedStory
	for _, c := range []struct {
		id       event.StoryID
		snippets int
	}{{1, 1}, {2, 3}, {3, 1}, {4, 2}, {5, 3}} {
		in = append(in, event.NewIntegratedStory(event.IntegratedID(c.id), []*event.Story{story(c.id, c.snippets)}))
	}
	before := slices.Clone(in)

	var got []event.IntegratedID
	for _, is := range largestFirst(in) {
		got = append(got, is.ID)
	}
	if want := []event.IntegratedID{2, 5, 4, 1, 3}; !slices.Equal(got, want) {
		t.Fatalf("largestFirst order %v, want %v", got, want)
	}
	if !slices.Equal(in, before) {
		t.Fatal("largestFirst reordered its input")
	}
}
