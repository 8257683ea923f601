package similarity

import (
	"math"
	"time"

	"repro/internal/event"
	"repro/internal/vocab"
)

// The similarity kernels operate on the flat sorted sparse vectors of
// internal/vocab. Every function here is a linear merge walk over
// pre-sorted integer IDs and performs zero heap allocations per call
// (enforced by TestKernelAllocs).

// IDWeighter assigns a positive importance weight to an interned entity
// symbol. IDF-style weighters down-weight ubiquitous entities ("Ukraine"
// appears in every story of a crisis month and carries little
// discriminating signal), which matters on the Zipf-distributed entity
// mentions of real event feeds. A nil IDWeighter means uniform weights.
type IDWeighter func(uint32) float64

// EntityIDF holds entity mention counts indexed by interned entity symbol,
// their sum and the number of entities with a nonzero count, and weights
// an entity by its mean-normalised inverse frequency (Weight). The zero
// value is an empty table. Identification keeps one per source; alignment
// keeps a live one and tabulates its weights into the statistics epoch
// its scores read (IDFTable).
type EntityIDF struct {
	count    []int32
	total    int
	distinct int
}

// Add adjusts entity e's count by delta (negative when mentions leave); a
// count never drops below zero.
func (t *EntityIDF) Add(e uint32, delta int32) {
	if int(e) >= len(t.count) {
		if delta <= 0 {
			return
		}
		if n := len(t.count); int(e) < cap(t.count) {
			t.count = t.count[:int(e)+1]
			clear(t.count[n:])
		} else {
			grown := make([]int32, int(e)+1, (int(e)+1)*2)
			copy(grown, t.count)
			t.count = grown
		}
	}
	before := t.count[e]
	after := before + delta
	if after < 0 {
		after = 0
	}
	t.count[e] = after
	t.total += int(after - before)
	if before == 0 && after > 0 {
		t.distinct++
	} else if before > 0 && after == 0 {
		t.distinct--
	}
}

// Weight is the IDF-style weight of entity e, normalised by the mean
// count: w(e) = 1 / (1 + ln(1 + c(e)/mean)). On near-uniform corpora
// every weight is ≈ 1/(1+ln 2) and the weighted Jaccard reduces to the
// unweighted one; only genuinely skewed entities are down-weighted. An
// entity the table has never counted weighs as count 0, which is 1.
func (t *EntityIDF) Weight(e uint32) float64 {
	var c int32
	if int(e) < len(t.count) {
		c = t.count[e]
	}
	return idfWeight(c, t.mean())
}

func (t *EntityIDF) mean() float64 {
	if t.distinct > 0 {
		return float64(t.total) / float64(t.distinct)
	}
	return 1
}

func idfWeight(c int32, mean float64) float64 {
	return 1 / (1 + math.Log(1+float64(c)/mean))
}

// Total returns the sum of all counts.
func (t *EntityIDF) Total() int { return t.total }

// Tabulate returns the Weight of every entity the table has a slot for,
// indexed by symbol, in dst's storage.
func (t *EntityIDF) Tabulate(dst IDFTable) IDFTable {
	mean := t.mean()
	dst = dst[:0]
	for _, c := range t.count {
		dst = append(dst, idfWeight(c, mean))
	}
	return dst
}

// IDFTable is an EntityIDF's weights at one instant, as Tabulate returns
// them. An entity past its end weighs 1, the weight of count 0, so the
// table answers every symbol exactly as the EntityIDF did, and a weight
// costs one load instead of a logarithm. Weight has a pointer receiver: a
// weighter bound to a table's variable reads what it holds now.
type IDFTable []float64

// Weight is entity e's tabulated weight.
func (t *IDFTable) Weight(e uint32) float64 {
	if int(e) < len(*t) {
		return (*t)[e]
	}
	return 1
}

// CosineIDs computes cosine similarity between two sorted weighted ID
// vectors. Empty vectors yield 0.
func CosineIDs(a, b []vocab.IDWeight) float64 {
	return CosineIDsNorm(a, vocab.WeightNorm(a), b, vocab.WeightNorm(b))
}

// CosineIDsNorm is CosineIDs with both norms precomputed (snippets and
// stories cache theirs), leaving only the merge-walk dot product.
func CosineIDsNorm(a []vocab.IDWeight, aNorm float64, b []vocab.IDWeight, bNorm float64) float64 {
	if len(a) == 0 || len(b) == 0 || aNorm == 0 || bNorm == 0 {
		return 0
	}
	var dot float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ai, bj := a[i].ID, b[j].ID
		switch {
		case ai == bj:
			dot += a[i].W * b[j].W
			i++
			j++
		case ai < bj:
			i++
		default:
			j++
		}
	}
	if dot == 0 {
		return 0
	}
	s := dot / (aNorm * bNorm)
	if s > 1 {
		s = 1
	}
	return s
}

// JaccardIDs computes |A∩B| / |A∪B| between a snippet's sorted entity
// symbols and a story's entity frequency vector. Both empty yields 0 (no
// evidence is not a match).
func JaccardIDs(a []uint32, b []vocab.IDCount) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j].ID:
			if b[j].N > 0 {
				inter++
			}
			i++
			j++
		case a[i] < b[j].ID:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// WeightedJaccardIDs is JaccardIDs with per-entity weights:
// Σw(A∩B) / Σw(A∪B).
func WeightedJaccardIDs(a []uint32, b []vocab.IDCount, ew IDWeighter) float64 {
	if ew == nil {
		return JaccardIDs(a, b)
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var inter, union float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j].ID:
			w := ew(a[i])
			union += w
			if b[j].N > 0 {
				inter += w
			}
			i++
			j++
		case a[i] < b[j].ID:
			union += ew(a[i])
			i++
		default:
			if b[j].N > 0 {
				union += ew(b[j].ID)
			}
			j++
		}
	}
	for ; i < len(a); i++ {
		union += ew(a[i])
	}
	for ; j < len(b); j++ {
		if b[j].N > 0 {
			union += ew(b[j].ID)
		}
	}
	if union == 0 {
		return 0
	}
	return inter / union
}

// JaccardIDSets computes the Jaccard coefficient between two entity
// frequency vectors (story vs story).
func JaccardIDSets(a, b []vocab.IDCount) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].ID == b[j].ID:
			if a[i].N > 0 && b[j].N > 0 {
				inter++
			}
			i++
			j++
		case a[i].ID < b[j].ID:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// WeightedJaccardIDSets is JaccardIDSets with per-entity weights.
func WeightedJaccardIDSets(a, b []vocab.IDCount, ew IDWeighter) float64 {
	if ew == nil {
		return JaccardIDSets(a, b)
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var inter, union float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].ID == b[j].ID:
			w := ew(a[i].ID)
			union += w
			if a[i].N > 0 && b[j].N > 0 {
				inter += w
			}
			i++
			j++
		case a[i].ID < b[j].ID:
			if a[i].N > 0 {
				union += ew(a[i].ID)
			}
			i++
		default:
			if b[j].N > 0 {
				union += ew(b[j].ID)
			}
			j++
		}
	}
	for ; i < len(a); i++ {
		if a[i].N > 0 {
			union += ew(a[i].ID)
		}
	}
	for ; j < len(b); j++ {
		if b[j].N > 0 {
			union += ew(b[j].ID)
		}
	}
	if union == 0 {
		return 0
	}
	return inter / union
}

// SnippetStoryIDs scores how well snippet s matches a story summarised by
// the given entity frequency and term centroid vectors (which may be
// windowed), with refTime the story-side reference timestamp for the
// temporal component. This is the identification hot path: it reads only
// the snippet's pre-interned TermIDs/EntityIDs/TermNorm and the story's
// flat aggregates, and allocates nothing.
func SnippetStoryIDs(s *event.Snippet, entities []vocab.IDCount,
	centroid []vocab.IDWeight, centroidNorm float64,
	refTime time.Time, scale time.Duration, w Weights, ew IDWeighter) float64 {
	we := adaptive(w,
		len(s.EntityIDs) > 0 && len(entities) > 0,
		len(s.TermIDs) > 0 && len(centroid) > 0)
	sim := 0.0
	if we.Entity > 0 {
		sim += we.Entity * WeightedJaccardIDs(s.EntityIDs, entities, ew)
	}
	if we.Description > 0 {
		sim += we.Description * CosineIDsNorm(s.TermIDs, s.TermNorm, centroid, centroidNorm)
	}
	sim += we.Temporal * TemporalDecay(s.Timestamp, refTime, scale)
	return sim
}

// SnippetsIDs scores the similarity of two interned snippets directly —
// the ID-space form of Snippets, used by the split/merge connectivity
// graph and align-vs-enrich classification.
func SnippetsIDs(a, b *event.Snippet, scale time.Duration, w Weights) float64 {
	we := adaptive(w,
		len(a.EntityIDs) > 0 && len(b.EntityIDs) > 0,
		len(a.TermIDs) > 0 && len(b.TermIDs) > 0)
	inter, i, j := 0, 0, 0
	for i < len(a.EntityIDs) && j < len(b.EntityIDs) {
		switch {
		case a.EntityIDs[i] == b.EntityIDs[j]:
			inter++
			i++
			j++
		case a.EntityIDs[i] < b.EntityIDs[j]:
			i++
		default:
			j++
		}
	}
	var je float64
	if union := len(a.EntityIDs) + len(b.EntityIDs) - inter; union > 0 {
		je = float64(inter) / float64(union)
	}
	sim := we.Entity * je
	sim += we.Description * CosineIDsNorm(a.TermIDs, a.TermNorm, b.TermIDs, b.TermNorm)
	sim += we.Temporal * TemporalDecay(a.Timestamp, b.Timestamp, scale)
	return sim
}
