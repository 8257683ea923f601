package align

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/event"
	"repro/internal/similarity"
	"repro/internal/vocab"
)

// RefineConfig parameterises story refinement (paper Figure 1d): the
// correction of story-identification mistakes using cross-source evidence
// surfaced by alignment.
type RefineConfig struct {
	// Margin is the score advantage a foreign story must have over the
	// snippet's home story (with the snippet's own contribution removed)
	// before the snippet is moved. Larger margins make refinement more
	// conservative.
	Margin float64
	// SupportThreshold is the minimum snippet-level similarity to a
	// snippet of *another source* inside the target integrated story; a
	// move needs independent cross-source support, which is exactly the
	// "irregularity" signal of the paper (related snippets across sources
	// land in different stories).
	SupportThreshold float64
	// SupportScale is the temporal tolerance for support snippets.
	SupportScale time.Duration
	// MinTargetScore is the absolute floor a target story must clear
	// regardless of how weak the home story is; it stops snippets in
	// singleton stories from drifting to any temporally close story.
	MinTargetScore float64
	// Weights for snippet-level and snippet-story comparisons.
	Weights similarity.Weights
	// TemporalScale for the snippet-story temporal component.
	TemporalScale time.Duration
}

// DefaultRefineConfig returns the configuration used by the demo system.
func DefaultRefineConfig() RefineConfig {
	return RefineConfig{
		Margin:           0.08,
		SupportThreshold: 0.4,
		SupportScale:     3 * 24 * time.Hour,
		MinTargetScore:   0.3,
		Weights:          similarity.DefaultWeights(),
		TemporalScale:    4 * 24 * time.Hour,
	}
}

// Mover re-homes a snippet within one source's story set; the per-source
// Identifier satisfies it.
type Mover interface {
	Move(snID event.SnippetID, to event.StoryID) bool
}

// Correction records one refinement decision.
type Correction struct {
	Snippet  event.SnippetID
	Source   event.SourceID
	From, To event.StoryID
	Gain     float64 // target score minus home score
}

// Refine runs one refinement pass with a fresh Refiner: it plans every
// snippet of every integrated story and moves snippets whose cross-source
// evidence places them in a different story of their own source (paper
// Figure 1d: v¹₄ moves from c¹₁ to c¹₃). Moves are applied through the
// per-source movers so identifier state stays consistent. The alignment
// result is stale after refinement; the caller re-runs alignment if it
// needs fresh integrated stories. A caller that refines result after
// result keeps one Refiner instead, which re-plans only what changed.
func Refine(res *Result, movers map[event.SourceID]Mover, cfg RefineConfig) []Correction {
	return NewRefiner(cfg).Refine(res, movers)
}

// Refiner runs refinement passes over successive alignment results and
// remembers what each pass computed, so the next one re-scores only what
// a changed story can affect (DESIGN.md §3.3). A snippet's plan has two
// parts. Its home score is a function of its home story alone. The rest
// is a fold, in result order, over the multi-source integrated stories in
// its reach, where each contributes its first maximal same-source
// candidate, that candidate's score and whether the integrated story
// supports the snippet. The candidate and its score depend on the
// snippet, its home story's ID and the integrated story's members of the
// snippet's own source; the support verdict on its members of the other
// sources. The home score is re-derived only when the home story's
// (ID, Gen) changes. An integrated story's target is reused whole while
// its version is one the snippet was planned against, and without its
// support verdict under a new version whose members of the snippet's
// source are those of the last one, if the snippet lay in the last one's
// widened extent; it is scored again only otherwise. So every pass
// returns exactly the corrections a fresh Refiner would.
//
// A Refiner reads the results of one Aligner. The aligner's versions only
// grow, a kept integrated story keeps its version and a dropped one never
// comes back, so an integrated story whose version is at most the largest
// of the last pass's result was in that result, with the same members.
//
// The memo holds IDs and numbers, no story pointers: the GC has nothing
// in it to scan and a result it saw is not kept alive. Not safe for
// concurrent use.
type Refiner struct {
	cfg RefineConfig

	// planned is the largest integrated-story version of the last pass's
	// result.
	planned uint64

	// The last pass's plans: per home story visited, per snippet of it,
	// per integrated story that could take the snippet.
	homes   []homeMemo
	homeAt  map[event.StoryID]int32 // index into homes
	snips   []snipMemo
	targets []target
	// The last pass's multi-source integrated stories, in result order,
	// and their members.
	multis  []multiMemo
	members []memberMemo

	// The memo of the pass before last, whose buffers the next pass
	// writes into (DESIGN.md §3.3). It holds no pointers, so keeping it
	// keeps nothing else alive.
	spareHomes   []homeMemo
	spareSnips   []snipMemo
	spareTargets []target
	spareMultis  []multiMemo
	spareMembers []memberMemo

	// srcs numbers every source a memo member has had, so the memo holds
	// no source name.
	srcs map[event.SourceID]int32

	// Scratch, valid within one pass.
	plans []Correction
	multi []reach
	kept  []int32 // the reaches' unchanged sources, numbered by srcs
	near  []near
	cen   []vocab.IDWeight
	ents  []vocab.IDCount
}

// homeMemo is one home story of the last pass: its (ID, Gen) and its
// snippets' memos snips[lo ..+n], in the story's snippet order.
type homeMemo struct {
	id    event.StoryID
	gen   uint64
	lo, n int32
}

// snipMemo is one snippet's home score and its targets[lo ..+n].
type snipMemo struct {
	id        event.SnippetID
	homeScore float64
	lo, n     int32
}

// target is what one multi-source integrated story, at version ver,
// offers one snippet: the first of its same-source candidates with the
// maximal score, and the support verdict once it has been searched for.
// Only targets scoring above MinTargetScore are kept: the bar a candidate
// must clear never falls below it.
type target struct {
	score   float64
	to      event.StoryID
	ver     uint64
	support int8 // 0 not searched yet, 1 supported, -1 not supported
}

// multiMemo is one multi-source integrated story of the last pass: its
// ID, version, extent widened by SupportScale (Unix nanoseconds) and its
// members members[lo ..+n], in member order.
type multiMemo struct {
	id       event.IntegratedID
	ver      uint64
	from, to int64
	lo, n    int32
}

// memberMemo is one member story of a multi-source integrated story: its
// (ID, Gen) and its source's number in srcs.
type memberMemo struct {
	id  event.StoryID
	gen uint64
	src int32
}

// reach is a multi-source integrated story of the current pass with its
// extent widened by SupportScale. When the last pass had a multi-source
// integrated story of the same ID at another version, old is that
// version, oldFrom and oldTo its widened extent, and kept[keptLo ..+keptN]
// the sources whose members it had too, in the same order at the same
// Gens.
type reach struct {
	is             *event.IntegratedStory
	from, to       time.Time
	old            uint64
	oldFrom, oldTo int64
	keptLo, keptN  int32
}

// near is a multi-source integrated story in reach of one home story:
// multi[k], and whether its members of the home's source are those of
// its old version.
type near struct {
	k    int32
	keep bool
}

// NewRefiner returns a Refiner with an empty memo; its first pass plans
// everything, as a one-shot Refine does.
func NewRefiner(cfg RefineConfig) *Refiner {
	return &Refiner{cfg: cfg, homeAt: make(map[event.StoryID]int32), srcs: make(map[event.SourceID]int32)}
}

// Refine plans one pass over res and applies it through movers, exactly
// as the package-level Refine would.
func (r *Refiner) Refine(res *Result, movers map[event.SourceID]Mover) []Correction {
	span := metRefineLat.Start()
	defer span.End()
	metRefineRuns.Inc()
	// Plan all moves first, then apply: applying while scanning would make
	// later scores depend on earlier moves within the same pass.
	plans := r.plan(res, movers)
	// Apply best-gain-first; once a story has been modified by an applied
	// move, the remaining plans that read or write it are stale — their
	// scores were computed against the old contents — so they are skipped
	// and left for the next refinement round.
	slices.SortFunc(plans, compareByGain)
	var corrections []Correction
	touched := make(map[event.StoryID]bool)
	for _, c := range plans {
		if touched[c.From] || touched[c.To] {
			continue
		}
		if movers[c.Source].Move(c.Snippet, c.To) {
			corrections = append(corrections, c)
			touched[c.From] = true
			touched[c.To] = true
		}
	}
	r.plans = plans[:0]
	return corrections
}

// compareByGain orders plans by descending gain, then ascending snippet
// ID. A snippet has at most one plan per pass, so the order is total.
func compareByGain(a, b Correction) int {
	if c := cmp.Compare(b.Gain, a.Gain); c != 0 {
		return c
	}
	return cmp.Compare(a.Snippet, b.Snippet)
}

// plan returns each snippet's best supported move, reusing the last
// pass's home scores and targets wherever their inputs are unchanged, and
// replaces the memo with this pass's.
func (r *Refiner) plan(res *Result, movers map[event.SourceID]Mover) []Correction {
	cfg := r.cfg
	// Every snippet with a memo was planned in the last pass, against
	// versions up to planned.
	planned := r.planned
	r.planned = r.collectMulti(res)
	// This pass's memo goes into the buffers of the pass before last.
	homes := slices.Grow(r.spareHomes[:0], len(r.homes))
	snips := slices.Grow(r.spareSnips[:0], len(r.snips))
	targets := slices.Grow(r.spareTargets[:0], len(r.targets))
	plans := r.plans[:0]
	scores := 0
	for _, is := range res.Integrated {
		for _, home := range is.Members {
			if movers[home.Source] == nil || home.Len() == 0 {
				continue
			}
			// The snippets' memos are reusable only under the same home ID.
			// Under the same Gen too the snippets are the same, in the same
			// order, and so are their home scores.
			var old homeMemo
			if i, ok := r.homeAt[home.ID]; ok {
				old = r.homes[i]
			}
			same := old.n > 0 && old.gen == home.Gen() && int(old.n) == home.Len()
			r.reachOf(home)
			cursor := int32(0)
			lo := len(snips)
			for i, sn := range home.Snippets {
				sn.EnsureInterned()
				var memo *snipMemo
				switch {
				case same:
					memo = &r.snips[old.lo+int32(i)]
				case old.n > 0:
					// The story changed: find the snippet among the old
					// ones, searching on from the last match.
					for k := int32(0); k < old.n; k++ {
						j := (cursor + k) % old.n
						if r.snips[old.lo+j].id == sn.ID {
							memo, cursor = &r.snips[old.lo+j], j+1
							break
						}
					}
				}
				var homeScore float64
				if same {
					homeScore = memo.homeScore
				} else {
					homeScore = r.scoreWithoutSelf(sn, home)
					scores++
				}
				// The snippet's targets of the last pass. A snippet new to its
				// home was never planned under it.
				var prev []target
				if memo != nil {
					prev = r.targets[memo.lo : memo.lo+memo.n]
				}
				var best Correction
				moved := false
				bestScore := homeScore + cfg.Margin
				if bestScore < cfg.MinTargetScore {
					bestScore = cfg.MinTargetScore
				}
				first := len(targets)
				// Candidate targets: other stories of the same source — in
				// other integrated components or the snippet's own — inside
				// components that have cross-source support for this
				// snippet. The support requirement is the paper's
				// "irregularity" signal: related snippets in other sources
				// sit with the candidate story, not the home. Support does
				// not depend on the scores, so it is searched for only once
				// a target of the component could win.
				for _, nr := range r.near {
					m := &r.multi[nr.k]
					var t target
					switch {
					case memo != nil && m.is.Version <= planned:
						// M had its current members when the snippet was last
						// planned: its target, if any, is in prev.
						var ok bool
						if t, ok = targetAt(prev, m.is.Version); !ok {
							continue
						}
					case sn.Timestamp.Before(m.from) || sn.Timestamp.After(m.to):
						continue
					case memo != nil && nr.keep && m.heldOld(sn.Timestamp):
						// M's members of the snippet's source are those of its
						// old version, which was planned for the snippet, so the
						// candidate and its score are too. The other sources'
						// members changed, and with them the support.
						var ok bool
						if t, ok = targetAt(prev, m.old); !ok {
							continue
						}
						t.ver, t.support = m.is.Version, 0
					default:
						var n int
						t, n = r.bestCandidate(sn, home, m)
						scores += n
						if !(t.score > cfg.MinTargetScore) {
							continue
						}
					}
					if t.score > bestScore {
						if t.support == 0 {
							t.support = -1
							if hasCrossSourceSupport(sn, m.is, cfg) {
								t.support = 1
							}
						}
						if t.support > 0 {
							bestScore, moved = t.score, true
							best = Correction{
								Snippet: sn.ID, Source: home.Source,
								From: home.ID, To: t.to,
								Gain: t.score - homeScore,
							}
						}
					}
					targets = append(targets, t)
				}
				snips = append(snips, snipMemo{id: sn.ID, homeScore: homeScore,
					lo: int32(first), n: int32(len(targets) - first)})
				if moved {
					plans = append(plans, best)
				}
			}
			homes = append(homes, homeMemo{id: home.ID, gen: home.Gen(), lo: int32(lo), n: int32(len(snips) - lo)})
		}
	}
	metRefineScores.Add(uint64(scores))
	clear(r.homeAt)
	for i, h := range homes {
		r.homeAt[h.id] = int32(i)
	}
	r.spareHomes, r.spareSnips, r.spareTargets = r.homes, r.snips, r.targets
	r.homes, r.snips, r.targets = homes, snips, targets
	clear(r.multi) // the memo keeps no pointer into res
	r.multi = r.multi[:0]
	return plans
}

// collectMulti collects this pass's multi-source integrated stories into
// r.multi, in result order, replaces the memo's record of them with this
// pass's, and returns the largest version in res. Only a story spanning
// two sources can hold both a target of a snippet's own source and
// support from another. The last pass's record is found by ID in one
// merge walk, since results list their integrated stories in ascending ID
// order.
func (r *Refiner) collectMulti(res *Result) uint64 {
	old, oldMembers := r.multis, r.members
	multis := slices.Grow(r.spareMultis[:0], len(old))
	members := slices.Grow(r.spareMembers[:0], len(oldMembers))
	r.kept = r.kept[:0]
	var top uint64
	j := 0
	for _, is := range res.Integrated {
		top = max(top, is.Version)
		if !multiSource(is) {
			continue
		}
		start, end := is.Extent()
		m := reach{is: is, from: start.Add(-r.cfg.SupportScale), to: end.Add(r.cfg.SupportScale)}
		for j < len(old) && old[j].id < is.ID {
			j++
		}
		var prev []memberMemo
		if j < len(old) && old[j].id == is.ID {
			prev = oldMembers[old[j].lo : old[j].lo+old[j].n]
		}
		lo := len(members)
		if prev != nil && old[j].ver == is.Version {
			members = append(members, prev...)
		} else {
			for _, mem := range is.Members {
				members = append(members, memberMemo{id: mem.ID, gen: mem.Gen(), src: r.sourceNumber(mem.Source)})
			}
			if prev != nil {
				m.old, m.oldFrom, m.oldTo = old[j].ver, old[j].from, old[j].to
				m.keptLo = int32(len(r.kept))
				r.kept = keptSources(r.kept, prev, members[lo:])
				m.keptN = int32(len(r.kept)) - m.keptLo
			}
		}
		multis = append(multis, multiMemo{id: is.ID, ver: is.Version,
			from: m.from.UnixNano(), to: m.to.UnixNano(), lo: int32(lo), n: int32(len(members) - lo)})
		r.multi = append(r.multi, m)
	}
	r.spareMultis, r.spareMembers = old, oldMembers
	r.multis, r.members = multis, members
	return top
}

// sourceNumber returns src's number in r.srcs, numbering it if it is new.
func (r *Refiner) sourceNumber(src event.SourceID) int32 {
	n, ok := r.srcs[src]
	if !ok {
		n = int32(len(r.srcs))
		r.srcs[src] = n
	}
	return n
}

// keptSources appends to dst every source of cur, a member list in member
// order, whose members old lists too, in the same order at the same Gens.
func keptSources(dst []int32, old, cur []memberMemo) []int32 {
	for lo := 0; lo < len(cur); {
		src := cur[lo].src
		hi := lo + 1
		for hi < len(cur) && cur[hi].src == src {
			hi++
		}
		if slices.Equal(sourceRun(old, src), cur[lo:hi]) {
			dst = append(dst, src)
		}
		lo = hi
	}
	return dst
}

// sourceRun returns the members of source src in a member list in member
// order, which holds them side by side.
func sourceRun(ms []memberMemo, src int32) []memberMemo {
	lo := slices.IndexFunc(ms, func(m memberMemo) bool { return m.src == src })
	if lo < 0 {
		return nil
	}
	hi := lo + 1
	for hi < len(ms) && ms[hi].src == src {
		hi++
	}
	return ms[lo:hi]
}

// heldOld reports whether a snippet at ts lay in the widened extent of
// m's old version.
func (m *reach) heldOld(ts time.Time) bool {
	ns := ts.UnixNano()
	return m.old != 0 && ns >= m.oldFrom && ns <= m.oldTo
}

// targetAt returns the target of version ver among a snippet's targets.
func targetAt(prev []target, ver uint64) (target, bool) {
	for _, p := range prev {
		if p.ver == ver {
			return p, true
		}
	}
	return target{}, false
}

// reachOf fills r.near with the multi-source integrated stories whose
// widened extent overlaps the home story's snippets, in result order: no
// other can be in reach of any of them.
func (r *Refiner) reachOf(home *event.Story) {
	first, last := home.Snippets[0].Timestamp, home.Snippets[home.Len()-1].Timestamp
	src, numbered := r.srcs[home.Source]
	r.near = r.near[:0]
	for k := range r.multi {
		if m := &r.multi[k]; !first.After(m.to) && !last.Before(m.from) {
			keep := numbered && slices.Contains(r.kept[m.keptLo:m.keptLo+m.keptN], src)
			r.near = append(r.near, near{int32(k), keep})
		}
	}
}

// bestCandidate scores sn against the members of m's integrated story
// that could take it — its own source, not its home — and returns the
// first one with the maximal score, and how many it scored.
func (r *Refiner) bestCandidate(sn *event.Snippet, home *event.Story, m *reach) (target, int) {
	t := target{score: math.Inf(-1), ver: m.is.Version}
	n := 0
	for _, cand := range m.is.Members {
		if cand.Source != home.Source || cand.ID == home.ID {
			continue
		}
		ref := nearestTime(cand, sn.Timestamp)
		score := similarity.SnippetStoryIDs(sn, cand.EntityFreq, cand.Centroid,
			cand.CentroidNorm(), ref, r.cfg.TemporalScale, r.cfg.Weights, nil)
		n++
		if score > t.score {
			t.score, t.to = score, cand.ID
		}
	}
	return t, n
}

// scoreWithoutSelf computes the snippet's similarity to its home story
// with the snippet's own contribution removed from the aggregates, so a
// snippet cannot vouch for itself. The reduced aggregates are built in
// the Refiner's scratch buffers.
func (r *Refiner) scoreWithoutSelf(sn *event.Snippet, home *event.Story) float64 {
	if home.Len() <= 1 {
		return 0 // alone in its story: any supported alternative wins
	}
	r.cen = vocab.SubWeights(append(r.cen[:0], home.Centroid...), sn.TermIDs)
	r.ents = vocab.DecCounts(append(r.ents[:0], home.EntityFreq...), sn.EntityIDs)
	ref := nearestOtherTime(home, sn)
	return similarity.SnippetStoryIDs(sn, r.ents, r.cen, vocab.WeightNorm(r.cen), ref,
		r.cfg.TemporalScale, r.cfg.Weights, nil)
}

// hasCrossSourceSupport reports whether the integrated story contains a
// temporally close, similar snippet from a source other than sn's.
func hasCrossSourceSupport(sn *event.Snippet, is *event.IntegratedStory, cfg RefineConfig) bool {
	for _, m := range is.Members {
		if m.Source == sn.Source {
			continue
		}
		lo := sn.Timestamp.Add(-cfg.SupportScale)
		hi := sn.Timestamp.Add(cfg.SupportScale)
		for _, other := range m.WindowSnippets(lo, hi) {
			if similarity.Snippets(sn, other, cfg.SupportScale, cfg.Weights) >= cfg.SupportThreshold {
				return true
			}
		}
	}
	return false
}

func nearestTime(st *event.Story, t time.Time) time.Time {
	n := st.Len()
	if n == 0 {
		return t
	}
	i := sort.Search(n, func(i int) bool { return !st.Snippets[i].Timestamp.Before(t) })
	switch {
	case i == 0:
		return st.Snippets[0].Timestamp
	case i == n:
		return st.Snippets[n-1].Timestamp
	default:
		before, after := st.Snippets[i-1].Timestamp, st.Snippets[i].Timestamp
		if t.Sub(before) <= after.Sub(t) {
			return before
		}
		return after
	}
}

// nearestOtherTime is nearestTime excluding the snippet itself.
func nearestOtherTime(st *event.Story, sn *event.Snippet) time.Time {
	bestDiff := time.Duration(-1)
	best := sn.Timestamp
	for _, other := range st.Snippets {
		if other.ID == sn.ID {
			continue
		}
		d := other.Timestamp.Sub(sn.Timestamp)
		if d < 0 {
			d = -d
		}
		if bestDiff < 0 || d < bestDiff {
			bestDiff, best = d, other.Timestamp
		}
	}
	return best
}
