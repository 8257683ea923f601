package datagen

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/event"
)

// Config parameterises corpus generation. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	Seed int64

	// Corpus shape.
	Sources  int // number of data sources
	Stories  int // number of ground-truth stories
	Entities int // size of the entity universe (Zipfian popularity)
	Vocab    int // size of the description vocabulary

	// Story lifecycle.
	Start          time.Time     // corpus start (paper: June 1st 2014)
	Span           time.Duration // corpus span (paper: 6 months)
	MeanStoryLife  time.Duration // mean story duration
	EventsPerStory int           // mean number of real-world events per story
	Phases         int           // vocabulary phases per story (evolution)
	PhaseOverlap   float64       // fraction of vocabulary shared by adjacent phases

	// Topics models the domain structure of real news: stories belong to
	// topic families (conflicts, elections, markets, ...) and draw their
	// phase vocabulary from the family's shared pool, so *distinct*
	// stories of the same topic share vocabulary even though they are
	// separate real-world stories. This is the regime where
	// complete-history matching overfits (it chains temporally disjoint
	// same-topic stories) while sliding-window matching does not.
	// 0 means one isolated vocabulary per story (no sharing).
	Topics int
	// TopicVocab is the per-topic vocabulary pool size.
	TopicVocab int
	// EntityDrift is the fraction of a snippet's entities drawn from the
	// *current phase's* entity set rather than the story-wide backbone.
	// Real stories drift this way — the paper's Ukraine example starts
	// with protests (Kiev, protesters) and evolves into military conflict
	// (Donetsk, separatists) — and it is what makes whole-history
	// matching pay for its accumulated past. 0 disables drift.
	EntityDrift float64

	// Per-event snippet emission.
	Coverage     float64 // probability a source reports a given event
	MaxLag       time.Duration
	EntitiesPer  int     // entities sampled per snippet from the story core
	TermsPer     int     // description terms per snippet
	NoiseTermPct float64 // chance each term is drawn from global noise vocab
	NoiseEntPct  float64 // chance of one extra unrelated entity

	// Structural evolution (exercised by experiment E7).
	SplitFraction float64 // fraction of story pairs planted as "splits"
	MergeFraction float64 // fraction of stories whose early phase is split into two threads
}

// DefaultConfig mirrors the flavour of the paper's dataset panel at a
// laptop-friendly scale; experiments scale the knobs as needed.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		Sources:        10,
		Stories:        40,
		Entities:       500,
		Vocab:          4000,
		Start:          time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC),
		Span:           183 * 24 * time.Hour,
		MeanStoryLife:  30 * 24 * time.Hour,
		EventsPerStory: 20,
		Phases:         3,
		PhaseOverlap:   0.5,
		Topics:         10,
		TopicVocab:     40,
		EntityDrift:    0.4,
		Coverage:       0.6,
		MaxLag:         36 * time.Hour,
		EntitiesPer:    3,
		TermsPer:       8,
		NoiseTermPct:   0.15,
		NoiseEntPct:    0.08,
		SplitFraction:  0,
		MergeFraction:  0,
	}
}

// StoryTruth describes one planted ground-truth story.
type StoryTruth struct {
	Label     uint64
	Core      []event.Entity
	Start     time.Time
	End       time.Time
	SplitOf   uint64 // non-zero: this story shares its first phase with that label
	HasThread bool   // true: first phase is split into two vocab threads (merge case)
}

// Corpus is a generated dataset: snippets in chronological order plus the
// ground-truth story assignment.
type Corpus struct {
	Config   Config
	Snippets []*event.Snippet
	Truth    map[event.SnippetID]uint64
	Stories  []StoryTruth
	Sources  []event.SourceID
}

// SourceOf returns the per-source snippet lists, preserving chronological
// order within each source.
func (c *Corpus) BySource() map[event.SourceID][]*event.Snippet {
	out := make(map[event.SourceID][]*event.Snippet, len(c.Sources))
	for _, s := range c.Snippets {
		out[s.Source] = append(out[s.Source], s)
	}
	return out
}

// Shuffled returns a copy of the snippet sequence in which approximately
// fraction of the snippets are displaced from chronological order
// (experiment E5: out-of-order delivery). The displacement is local — a
// displaced snippet swaps with a neighbour up to maxDisp positions away —
// matching the paper's observation that local media pick stories up faster
// than international media (bounded delays, not arbitrary reordering).
func (c *Corpus) Shuffled(fraction float64, maxDisp int, seed int64) []*event.Snippet {
	out := append([]*event.Snippet(nil), c.Snippets...)
	if fraction <= 0 || maxDisp <= 0 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range out {
		if rng.Float64() < fraction {
			j := i + 1 + rng.Intn(maxDisp)
			if j >= len(out) {
				j = len(out) - 1
			}
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// sourceProfile is a data source's reporting perspective (paper §1: sources
// report "with varying content and with varying levels of timeliness").
type sourceProfile struct {
	id       event.SourceID
	coverage float64       // probability of reporting an event
	lag      time.Duration // mean reporting lag
	bias     []string      // house vocabulary injected into descriptions
}

// Generate produces a corpus from the configuration. Generation is fully
// deterministic in Config.Seed.
func Generate(cfg Config) *Corpus {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Sources <= 0 || cfg.Stories <= 0 {
		return &Corpus{Config: cfg, Truth: map[event.SnippetID]uint64{}}
	}

	// Source profiles: coverage and lag vary per source around the config
	// means; each source gets a small house vocabulary.
	sources := make([]sourceProfile, cfg.Sources)
	srcIDs := make([]event.SourceID, cfg.Sources)
	for i := range sources {
		bias := make([]string, 3)
		for j := range bias {
			bias[j] = Word(cfg.Vocab + i*10 + j) // outside the story vocab range
		}
		sources[i] = sourceProfile{
			id:       event.SourceID(fmt.Sprintf("src%02d", i)),
			coverage: clamp01(cfg.Coverage * (0.6 + 0.8*rng.Float64())),
			lag:      time.Duration(rng.Int63n(int64(cfg.MaxLag) + 1)),
			bias:     bias,
		}
		srcIDs[i] = sources[i].id
	}

	entZipf := newZipf(cfg.Entities, 1.1)

	type phase struct {
		vocab []string
		extra []event.Entity
	}
	type story struct {
		truth  StoryTruth
		phases []phase
		events []time.Time
	}

	// Build stories.
	stories := make([]*story, cfg.Stories)
	nextVocab := 0
	takeVocab := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = Word(nextVocab % cfg.Vocab)
			nextVocab++
		}
		return out
	}
	// Topic vocabulary pools; stories of the same topic share a pool, and
	// topics also share an entity skew so same-topic stories look alike
	// the way recurring real-world coverage does.
	var topicPools [][]string
	for t := 0; t < cfg.Topics; t++ {
		size := cfg.TopicVocab
		if size <= 0 {
			size = 40
		}
		topicPools = append(topicPools, takeVocab(size))
	}
	sampleVocab := func(rng *rand.Rand, pool []string, n int) []string {
		if n >= len(pool) {
			return append([]string(nil), pool...)
		}
		perm := rng.Perm(len(pool))
		out := make([]string, n)
		for i := range out {
			out[i] = pool[perm[i]]
		}
		return out
	}
	for si := range stories {
		st := &story{}
		st.truth.Label = uint64(si + 1)
		// Core entities, Zipfian-popular.
		nCore := 2 + rng.Intn(3)
		seen := map[int]bool{}
		for len(st.truth.Core) < nCore {
			k := entZipf.draw(rng)
			if !seen[k] {
				seen[k] = true
				st.truth.Core = append(st.truth.Core, event.Entity(EntityName(k)))
			}
		}
		// Lifecycle.
		life := time.Duration(float64(cfg.MeanStoryLife) * (0.5 + rng.Float64()))
		if life > cfg.Span {
			life = cfg.Span
		}
		maxStart := cfg.Span - life
		var startOff time.Duration
		if maxStart > 0 {
			startOff = time.Duration(rng.Int63n(int64(maxStart)))
		}
		st.truth.Start = cfg.Start.Add(startOff)
		st.truth.End = st.truth.Start.Add(life)
		// Phases with overlapping vocabulary, drawn from the story's
		// topic pool when topics are configured.
		phases := cfg.Phases
		if phases < 1 {
			phases = 1
		}
		var pool []string
		if len(topicPools) > 0 {
			pool = topicPools[rng.Intn(len(topicPools))]
		}
		vocabPer := 12
		var prev []string
		for p := 0; p < phases; p++ {
			keep := int(float64(vocabPer) * cfg.PhaseOverlap)
			var v []string
			if p > 0 && keep > 0 && keep <= len(prev) {
				v = append(v, prev[len(prev)-keep:]...)
			}
			if pool != nil {
				v = append(v, sampleVocab(rng, pool, vocabPer-len(v))...)
			} else {
				v = append(v, takeVocab(vocabPer-len(v))...)
			}
			ph := phase{vocab: v}
			if cfg.EntityDrift > 0 {
				// Phase-specific entities: the actors that enter the
				// story during this phase.
				for k := 0; k < 2; k++ {
					ph.extra = append(ph.extra, event.Entity(EntityName(entZipf.draw(rng))))
				}
			} else if rng.Float64() < 0.5 {
				ph.extra = []event.Entity{event.Entity(EntityName(entZipf.draw(rng)))}
			}
			st.phases = append(st.phases, ph)
			prev = v
		}
		// Bursty event times: a burst at the start, Poisson-ish afterwards.
		n := 1 + int(float64(cfg.EventsPerStory)*(0.5+rng.Float64()))
		for e := 0; e < n; e++ {
			var frac float64
			if e < n/3 {
				frac = rng.Float64() * 0.25 // opening burst
			} else {
				frac = rng.Float64()
			}
			st.events = append(st.events, st.truth.Start.Add(time.Duration(frac*float64(life))))
		}
		sort.Slice(st.events, func(i, j int) bool { return st.events[i].Before(st.events[j]) })
		stories[si] = st
	}

	// Plant splits: story pairs (2i, 2i+1) model the paper's story
	// bifurcation ("political and economic events were interwoven during
	// the height of the Ukraine crisis while they started to separate
	// after the situation had stabilized"). The child story b:
	//   - starts mid-life of the parent a,
	//   - shares the parent's actors (core entities) plus one of its own,
	//   - opens with the parent's then-active vocabulary (the interwoven
	//     moment), then diverges into its own phases.
	// Single-pass identification glues b onto a (shared actors, shared
	// opening content); the split repair must separate the diverged tail.
	nSplit := int(cfg.SplitFraction * float64(cfg.Stories) / 2)
	for i := 0; i < nSplit && 2*i+1 < len(stories); i++ {
		a, b := stories[2*i], stories[2*i+1]
		aLife := a.truth.End.Sub(a.truth.Start)
		b.truth.Start = a.truth.Start.Add(aLife / 2)
		bLife := b.truth.End.Sub(b.truth.Start)
		if bLife <= 0 {
			bLife = aLife / 2
		}
		b.truth.End = b.truth.Start.Add(bLife)
		b.truth.SplitOf = a.truth.Label
		// Shared actors plus one own entity.
		own := b.truth.Core
		b.truth.Core = append(append([]event.Entity(nil), a.truth.Core...), own[0])
		// Opening phase = parent's mid-life phase; later phases stay b's.
		b.phases[0] = a.phases[len(a.phases)/2]
		// Re-anchor b's events into its new lifetime.
		for j := range b.events {
			frac := float64(j) / float64(len(b.events))
			b.events[j] = b.truth.Start.Add(time.Duration(frac * float64(bLife)))
		}
	}
	// Plant merges: a story's first phase is split into two disjoint vocab
	// threads; snippets alternate threads early, then converge. Single-pass
	// identification opens two stories; merge repair must join them.
	nMerge := int(cfg.MergeFraction * float64(cfg.Stories))
	for i := 0; i < nMerge; i++ {
		idx := len(stories) - 1 - i
		if idx < 2*nSplit {
			break
		}
		st := stories[idx]
		if len(st.phases) < 2 {
			continue
		}
		st.truth.HasThread = true
		st.phases = append([]phase{{vocab: takeVocab(12)}}, st.phases...)
	}

	// Emit snippets.
	corpus := &Corpus{Config: cfg, Truth: make(map[event.SnippetID]uint64), Sources: srcIDs}
	var nextID uint64
	for _, st := range stories {
		life := st.truth.End.Sub(st.truth.Start)
		for ei, et := range st.events {
			// Which phase is active at this event time?
			var pi int
			if life > 0 {
				pi = int(float64(et.Sub(st.truth.Start)) / float64(life) * float64(len(st.phases)))
			}
			if pi >= len(st.phases) {
				pi = len(st.phases) - 1
			}
			// Merge-thread stories alternate between phase 0 and 1 early.
			if st.truth.HasThread && pi <= 1 {
				pi = ei % 2
			}
			ph := st.phases[pi]
			for _, src := range sources {
				if rng.Float64() >= src.coverage {
					continue
				}
				nextID++
				lag := time.Duration(rng.Int63n(int64(src.lag) + 1))
				sn := &event.Snippet{
					ID:        event.SnippetID(nextID),
					Source:    src.id,
					Timestamp: et.Add(lag),
					Document:  fmt.Sprintf("http://%s/doc%d.html", src.id, nextID),
				}
				// Entities: a drifting mix of the story backbone and the
				// current phase's own actors.
				nDrift := 0
				if cfg.EntityDrift > 0 && len(ph.extra) > 0 {
					nDrift = int(float64(cfg.EntitiesPer)*cfg.EntityDrift + 0.5)
					if nDrift > len(ph.extra) {
						nDrift = len(ph.extra)
					}
				}
				nEnt := cfg.EntitiesPer - nDrift
				if nEnt > len(st.truth.Core) {
					nEnt = len(st.truth.Core)
				}
				perm := rng.Perm(len(st.truth.Core))
				for _, k := range perm[:nEnt] {
					sn.Entities = append(sn.Entities, st.truth.Core[k])
				}
				permD := rng.Perm(len(ph.extra))
				for _, k := range permD[:nDrift] {
					sn.Entities = append(sn.Entities, ph.extra[k])
				}
				if rng.Float64() < cfg.NoiseEntPct {
					sn.Entities = append(sn.Entities, event.Entity(EntityName(entZipf.draw(rng))))
				}
				// Terms: drawn from the active phase vocabulary with noise
				// and source-bias words.
				for t := 0; t < cfg.TermsPer; t++ {
					var tok string
					if rng.Float64() < cfg.NoiseTermPct {
						tok = Word(rng.Intn(cfg.Vocab))
					} else {
						tok = ph.vocab[rng.Intn(len(ph.vocab))]
					}
					sn.Terms = append(sn.Terms, event.Term{Token: tok, Weight: 0.5 + rng.Float64()})
				}
				sn.Terms = append(sn.Terms, event.Term{
					Token:  src.bias[rng.Intn(len(src.bias))],
					Weight: 0.3,
				})
				sn.Normalize()
				corpus.Snippets = append(corpus.Snippets, sn)
				corpus.Truth[sn.ID] = st.truth.Label
			}
		}
		corpus.Stories = append(corpus.Stories, st.truth)
	}
	slices.SortFunc(corpus.Snippets, event.CompareByTimestamp)
	return corpus
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
