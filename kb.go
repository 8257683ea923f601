package storypivot

import (
	"io"
	"sort"

	"repro/internal/kb"
	"repro/internal/sourceprof"
)

// Knowledge-base integration (paper §3): resolve story entities against an
// embedded knowledge base for context panels, and derive extraction
// gazetteers from KB records.

type (
	// KnowledgeBase is an embedded entity knowledge base (the offline
	// substitute for DBpedia).
	KnowledgeBase = kb.KB
	// KBRecord is one knowledge-base entity.
	KBRecord = kb.Record
	// KBRelation is a typed relation between entities.
	KBRelation = kb.Relation
	// StoryContext is the KB view of a story's entities.
	StoryContext = kb.Context
	// SourceProfile summarises one source's reporting behaviour
	// (timeliness, coverage, exclusivity).
	SourceProfile = sourceprof.Profile
)

// NewKnowledgeBase creates an empty knowledge base.
func NewKnowledgeBase() *KnowledgeBase { return kb.New() }

// SeedKnowledgeBase returns the built-in KB covering the paper's running
// examples.
func SeedKnowledgeBase() *KnowledgeBase { return kb.Seed() }

// LoadKnowledgeBase reads KB records from a JSONL stream.
func LoadKnowledgeBase(r io.Reader) (*KnowledgeBase, int, error) {
	k := kb.New()
	n, err := k.LoadJSONL(r)
	return k, n, err
}

// WithKnowledgeBase attaches a knowledge base to the pipeline: its records
// drive entity extraction (label + aliases become gazetteer surface forms)
// and power Context lookups.
func WithKnowledgeBase(k *KnowledgeBase) Option {
	return func(c *config) {
		c.kb = k
		c.gazetteer = k.Gazetteer()
	}
}

// KnowledgeBase returns the attached knowledge base, or nil.
func (p *Pipeline) KnowledgeBase() *KnowledgeBase { return p.kb }

// Context resolves an integrated story's entities against the attached
// knowledge base (nil without one).
func (p *Pipeline) Context(is *IntegratedStory) *StoryContext {
	if p.kb == nil || is == nil {
		return nil
	}
	return p.kb.StoryContext(is.EntityFreq())
}

// SourceProfiles derives per-source reporting profiles (timeliness,
// coverage, exclusivity) from the last published alignment result, sorted
// by source ID. See the sourceprof package for metric definitions.
func (p *Pipeline) SourceProfiles() []SourceProfile {
	res := p.engine.Published()
	profiles := sourceprof.Build(res, sourceprof.DefaultConfig())
	sort.Slice(profiles, func(i, j int) bool { return profiles[i].Source < profiles[j].Source })
	return profiles
}

// RankedSources orders the profiles by the watch-list score (timely,
// covering, exclusive sources first).
func (p *Pipeline) RankedSources() []SourceProfile {
	return sourceprof.Rank(p.SourceProfiles())
}
