package storypivot

import (
	"sort"

	"repro/internal/text"
)

// The full-scan query implementations the index replaced, kept as the
// reference the differential tests (query_differential_test.go) compare
// the indexed path against.

// scanStoriesByEntity walks every integrated story and materialises its
// merged entity-frequency map.
func (p *Pipeline) scanStoriesByEntity(e Entity) []*IntegratedStory {
	type scored struct {
		is    *IntegratedStory
		count int
	}
	var hits []scored
	for _, is := range p.Result().Integrated() {
		if c := is.EntityFreq()[e]; c > 0 {
			hits = append(hits, scored{is, c})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].count != hits[j].count {
			return hits[i].count > hits[j].count
		}
		return hits[i].is.ID < hits[j].is.ID
	})
	out := make([]*IntegratedStory, len(hits))
	for i, h := range hits {
		out[i] = h.is
	}
	return out
}

// scanSearch materialises every integrated story's merged centroid map
// per query.
func (p *Pipeline) scanSearch(query string) []*IntegratedStory {
	toks := text.Pipeline(query)
	if len(toks) == 0 {
		return []*IntegratedStory{}
	}
	type scored struct {
		is *IntegratedStory
		w  float64
	}
	var hits []scored
	for _, is := range p.Result().Integrated() {
		centroid := is.Centroid()
		var w float64
		for _, tok := range toks {
			w += centroid[tok]
		}
		if w > 0 {
			hits = append(hits, scored{is, w})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].w != hits[j].w {
			return hits[i].w > hits[j].w
		}
		return hits[i].is.ID < hits[j].is.ID
	})
	out := make([]*IntegratedStory, len(hits))
	for i, h := range hits {
		out[i] = h.is
	}
	return out
}

// scanTimeline visits every snippet of every integrated story.
func (p *Pipeline) scanTimeline(e Entity) []*Snippet {
	out := []*Snippet{}
	for _, is := range p.Result().Integrated() {
		for _, sn := range is.Snippets() {
			if sn.HasEntity(e) {
				out = append(out, sn)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Timestamp.Equal(out[j].Timestamp) {
			return out[i].Timestamp.Before(out[j].Timestamp)
		}
		return out[i].ID < out[j].ID
	})
	return out
}
