package storypivot

import (
	"sort"
	"strings"
)

// Query helpers implement the demo's exploration interactions (paper
// §4.2: "queries will consist of enquiries about specified real-world
// events or entities").
//
// Every query is served from the incremental index (internal/index):
// entity and term postings plus per-entity timeline segments, updated by
// delta on every alignment pass, so query cost scales with the result set
// instead of the corpus. The full-scan implementations the index replaced
// live on in query_scan_test.go as the differential tests' oracle.
//
// Queries never settle. They read what the last settle published, without
// the engine mutex, so a query never waits for an alignment pass. The
// contract is: ingest, then settle (Result, Align, or WithAutoAlign), then
// query. Snippets ingested after the last settle are not visible yet.

// StoriesByEntity returns the integrated stories mentioning the entity,
// ordered by how prominently they mention it (descending mention count,
// ties by ascending integrated ID).
func (p *Pipeline) StoriesByEntity(e Entity) []*IntegratedStory {
	out, _ := p.StoriesByEntityN(e, 0, -1)
	return out
}

// StoriesByEntityN is StoriesByEntity with pagination: it returns the
// ranked window [offset, offset+limit) and the total hit count.
// limit < 0 returns everything from offset on.
func (p *Pipeline) StoriesByEntityN(e Entity, offset, limit int) ([]*IntegratedStory, int) {
	out, total, _ := p.index.StoriesByEntity(e, offset, limit)
	return out, total
}

// Search returns integrated stories whose description centroid matches the
// free-text query (tokenised, stopword-filtered, stemmed), ranked by the
// summed centroid weight of the matched terms (ties by ascending
// integrated ID).
func (p *Pipeline) Search(query string) []*IntegratedStory {
	out, _ := p.SearchN(query, 0, -1)
	return out
}

// SearchN is Search with pagination: it returns the ranked window
// [offset, offset+limit) and the total hit count. limit < 0 returns
// everything from offset on.
func (p *Pipeline) SearchN(query string, offset, limit int) ([]*IntegratedStory, int) {
	out, total, _ := p.index.Search(query, offset, limit)
	return out, total
}

// SearchScoredN is SearchN plus the per-result ranking scores. The
// scores are what a scatter-gather router needs to merge pages from
// several shards under the exact single-node ordering (score descending,
// ties by ascending integrated ID); they are not part of the public
// response envelope unless explicitly requested.
func (p *Pipeline) SearchScoredN(query string, offset, limit int) ([]*IntegratedStory, []float64, int) {
	out, scores, total, _ := p.index.SearchScored(query, offset, limit)
	return out, scores, total
}

// StoriesByEntityScoredN is StoriesByEntityN plus the per-result ranking
// scores, for the same router-side merge as SearchScoredN.
func (p *Pipeline) StoriesByEntityScoredN(e Entity, offset, limit int) ([]*IntegratedStory, []float64, int) {
	out, scores, total, _ := p.index.StoriesByEntityScored(e, offset, limit)
	return out, scores, total
}

// Timeline returns the chronological snippet sequence for an entity across
// all integrated stories — the "casual reader" view (paper §3: "investi-
// gating the timeline of a story").
func (p *Pipeline) Timeline(e Entity) []*Snippet {
	out, _ := p.TimelineN(e, 0, -1)
	return out
}

// TimelineN is Timeline with pagination: it returns the chronological
// window [offset, offset+limit) and the total snippet count. limit < 0
// returns everything from offset on.
func (p *Pipeline) TimelineN(e Entity, offset, limit int) ([]*Snippet, int) {
	out, total, _ := p.index.Timeline(e, offset, limit)
	return out, total
}

// Perspectives summarises how each source covers an integrated story: the
// per-source snippet counts and top description terms, powering the
// "contrast source bias" use case (paper §3, Expert Scientist).
func Perspectives(is *IntegratedStory) map[SourceID]Perspective {
	out := make(map[SourceID]Perspective)
	for _, m := range is.Members {
		p := out[m.Source]
		p.Snippets += m.Len()
		if p.topTerms == nil {
			p.topTerms = map[string]float64{}
		}
		for tok, w := range m.CentroidMap() {
			p.topTerms[tok] += w
		}
		out[m.Source] = p
	}
	for src, p := range out {
		type tw struct {
			tok string
			w   float64
		}
		all := make([]tw, 0, len(p.topTerms))
		for tok, w := range p.topTerms {
			all = append(all, tw{tok, w})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].w != all[j].w {
				return all[i].w > all[j].w
			}
			return all[i].tok < all[j].tok
		})
		n := 5
		if len(all) < n {
			n = len(all)
		}
		terms := make([]string, n)
		for i := 0; i < n; i++ {
			terms[i] = all[i].tok
		}
		p.TopTerms = terms
		p.topTerms = nil
		out[src] = p
	}
	return out
}

// Perspective is one source's view of an integrated story.
type Perspective struct {
	Snippets int
	TopTerms []string

	topTerms map[string]float64 // scratch during aggregation
}

// String renders the perspective compactly.
func (p Perspective) String() string {
	return strings.Join(p.TopTerms, ", ")
}
