package extract

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/text"
)

// Document is a raw input document as fetched from a data source: a news
// article, a blog post, a report (paper Figure 1a).
type Document struct {
	Source    event.SourceID
	URL       string
	Title     string
	Body      string
	Published time.Time
}

// ErrNoContent is returned when a document yields no usable excerpts.
var ErrNoContent = errors.New("extract: document has no usable content")

// Extractor converts documents into annotated snippets. It owns a
// monotonically increasing snippet-ID counter and the TF-IDF corpus used
// to weigh description terms, so snippets from all sources share one
// weighting space. An Extractor is safe for concurrent use.
type Extractor struct {
	gaz    *Gazetteer
	corpus *text.Corpus
	nextID atomic.Uint64

	// MinTokens drops excerpts with fewer content tokens than this
	// (defaults to 2); one-word excerpts carry no matchable description.
	MinTokens int

	// Bigrams additionally emits adjacent-token bigrams ("shot_down")
	// as description terms. Off by default: the extraction-terms
	// ablation (experiments.RunAblations) sets it and shows bigrams
	// rarely repeat across differently-worded reports, costing recall.
	Bigrams bool

	mu sync.Mutex
}

// NewExtractor creates an extractor over the given gazetteer.
func NewExtractor(gaz *Gazetteer) *Extractor {
	return &Extractor{gaz: gaz, corpus: text.NewCorpus(), MinTokens: 2}
}

// Corpus exposes the shared TF-IDF corpus (read-mostly; used by tests and
// the statistics module).
func (x *Extractor) Corpus() *text.Corpus { return x.corpus }

// NextID returns the next snippet ID without consuming it.
func (x *Extractor) NextID() event.SnippetID {
	return event.SnippetID(x.nextID.Load() + 1)
}

// SetNextID advances the ID counter so that future snippets receive IDs
// strictly greater than n. Used when resuming over a persisted store to
// avoid colliding with already-issued IDs; it never moves backwards.
func (x *Extractor) SetNextID(n uint64) {
	for {
		cur := x.nextID.Load()
		if cur >= n || x.nextID.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Extract breaks a document into excerpts (title plus paragraphs),
// annotates each, and returns the resulting snippets. Excerpts with no
// entities and fewer than MinTokens content tokens are dropped as noise.
// The document's publication time stamps every snippet; per the paper the
// timestamp records "when the event(s) in the snippet occurred", which the
// black-box extractor approximates with publication time.
func (x *Extractor) Extract(doc *Document) ([]*event.Snippet, error) {
	if doc.Source == "" {
		return nil, event.ErrNoSource
	}
	if doc.Published.IsZero() {
		return nil, event.ErrNoTimestamp
	}
	var excerpts []string
	if doc.Title != "" {
		excerpts = append(excerpts, doc.Title)
	}
	excerpts = append(excerpts, text.Paragraphs(doc.Body)...)

	var out []*event.Snippet
	for _, ex := range excerpts {
		ents, content := x.gaz.Annotate(ex)
		if len(ents) == 0 && len(content) < x.MinTokens {
			continue
		}
		if x.Bigrams {
			content = withBigrams(content)
		}
		// Update corpus stats, then weigh. Observing before weighing
		// means a term's own document counts toward its DF, which keeps
		// IDF finite for first occurrences.
		x.corpus.Observe(content)
		weighted := x.corpus.Weigh(content)
		terms := make([]event.Term, len(weighted))
		for i, wt := range weighted {
			terms[i] = event.Term{Token: wt.Token, Weight: wt.Weight}
		}
		sn := &event.Snippet{
			ID:        event.SnippetID(x.nextID.Add(1)),
			Source:    doc.Source,
			Timestamp: doc.Published,
			Entities:  ents,
			Terms:     terms,
			Text:      ex,
			Document:  doc.URL,
		}
		sn.Normalize()
		out = append(out, sn)
	}
	if len(out) == 0 {
		return nil, ErrNoContent
	}
	return out, nil
}

// withBigrams appends adjacent-token bigrams to the content tokens.
func withBigrams(tokens []string) []string {
	out := append([]string(nil), tokens...)
	for i := 0; i+1 < len(tokens); i++ {
		out = append(out, tokens[i]+"_"+tokens[i+1])
	}
	return out
}

// ExtractAll extracts a batch of documents, skipping documents that yield
// no content and collecting snippets in input order.
func (x *Extractor) ExtractAll(docs []*Document) []*event.Snippet {
	var out []*event.Snippet
	for _, d := range docs {
		sns, err := x.Extract(d)
		if err != nil {
			continue
		}
		out = append(out, sns...)
	}
	return out
}
