package similarity

import (
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
