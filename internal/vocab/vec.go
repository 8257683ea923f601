package vocab

import "math"

// Flat sparse vectors: the story/snippet aggregate representation of the
// similarity hot path. Both types are kept sorted by ascending ID so
// that every binary operation is a linear merge walk — cache-friendly,
// branch-predictable, and allocation-free on the read side. The update
// helpers (Add*/Sub*/Inc*/Dec*) reuse the destination's backing array
// whenever capacity allows, so steady-state story updates do not
// allocate either.

// IDWeight is one component of a weighted sparse vector (a term and its
// aggregate TF-IDF weight).
type IDWeight struct {
	ID uint32
	W  float64
}

// IDCount is one component of a counting sparse vector (an entity and
// the number of snippets mentioning it).
type IDCount struct {
	ID uint32
	N  int32
}

// epsWeight is the threshold below which a subtracted weight is treated
// as zero and dropped (floating-point residue from add/remove cycles).
const epsWeight = 1e-12

// WeightNorm returns the Euclidean norm of v.
func WeightNorm(v []IDWeight) float64 {
	var sum float64
	for _, e := range v {
		sum += e.W * e.W
	}
	return math.Sqrt(sum)
}

// AddWeights merges add into dst (both sorted by ID), summing weights of
// shared IDs, and returns the updated vector. When every ID of add is
// already present the update is fully in place; when new IDs fit in
// dst's spare capacity they are merged in from the back without
// allocating.
func AddWeights(dst, add []IDWeight) []IDWeight {
	if len(add) == 0 {
		return dst
	}
	// Count IDs of add that are missing from dst.
	missing := 0
	i, j := 0, 0
	for j < len(add) {
		switch {
		case i < len(dst) && dst[i].ID < add[j].ID:
			i++
		case i < len(dst) && dst[i].ID == add[j].ID:
			i++
			j++
		default:
			missing++
			j++
		}
	}
	if missing == 0 {
		i = 0
		for _, a := range add {
			for dst[i].ID != a.ID {
				i++
			}
			dst[i].W += a.W
		}
		return dst
	}
	n := len(dst)
	if cap(dst) >= n+missing {
		dst = dst[:n+missing]
	} else {
		grown := make([]IDWeight, n+missing, (n+missing)*2)
		copy(grown, dst[:n])
		dst = grown
	}
	// Backward merge: read cursors at the old ends, write cursor at the
	// new end.
	w := len(dst) - 1
	i, j = n-1, len(add)-1
	for j >= 0 {
		if i >= 0 && dst[i].ID > add[j].ID {
			dst[w] = dst[i]
			i--
		} else if i >= 0 && dst[i].ID == add[j].ID {
			dst[w] = IDWeight{ID: add[j].ID, W: dst[i].W + add[j].W}
			i--
			j--
		} else {
			dst[w] = add[j]
			j--
		}
		w--
	}
	// Remaining dst prefix is already in place.
	return dst
}

// SubWeights subtracts sub from dst in place (both sorted by ID),
// dropping components whose weight falls to (near) zero, and returns the
// compacted vector. IDs of sub absent from dst are ignored.
func SubWeights(dst, sub []IDWeight) []IDWeight {
	if len(sub) == 0 {
		return dst
	}
	j := 0
	w := 0
	for i := 0; i < len(dst); i++ {
		e := dst[i]
		for j < len(sub) && sub[j].ID < e.ID {
			j++
		}
		if j < len(sub) && sub[j].ID == e.ID {
			e.W -= sub[j].W
			j++
		}
		if e.W > epsWeight {
			dst[w] = e
			w++
		}
	}
	return dst[:w]
}

// AddCounts merges the counting vector add into dst (both sorted by ID)
// and returns the updated vector, reusing dst's backing array when
// possible (same contract as AddWeights).
func AddCounts(dst, add []IDCount) []IDCount {
	if len(add) == 0 {
		return dst
	}
	missing := 0
	i, j := 0, 0
	for j < len(add) {
		switch {
		case i < len(dst) && dst[i].ID < add[j].ID:
			i++
		case i < len(dst) && dst[i].ID == add[j].ID:
			i++
			j++
		default:
			missing++
			j++
		}
	}
	if missing == 0 {
		i = 0
		for _, a := range add {
			for dst[i].ID != a.ID {
				i++
			}
			dst[i].N += a.N
		}
		return dst
	}
	n := len(dst)
	if cap(dst) >= n+missing {
		dst = dst[:n+missing]
	} else {
		grown := make([]IDCount, n+missing, (n+missing)*2)
		copy(grown, dst[:n])
		dst = grown
	}
	w := len(dst) - 1
	i, j = n-1, len(add)-1
	for j >= 0 {
		if i >= 0 && dst[i].ID > add[j].ID {
			dst[w] = dst[i]
			i--
		} else if i >= 0 && dst[i].ID == add[j].ID {
			dst[w] = IDCount{ID: add[j].ID, N: dst[i].N + add[j].N}
			i--
			j--
		} else {
			dst[w] = add[j]
			j--
		}
		w--
	}
	return dst
}

// IncCounts increments dst by one for every id in ids (sorted, unique)
// and returns the updated vector (a snippet joining a story).
func IncCounts(dst []IDCount, ids []uint32) []IDCount {
	if len(ids) == 0 {
		return dst
	}
	missing := 0
	i, j := 0, 0
	for j < len(ids) {
		switch {
		case i < len(dst) && dst[i].ID < ids[j]:
			i++
		case i < len(dst) && dst[i].ID == ids[j]:
			i++
			j++
		default:
			missing++
			j++
		}
	}
	if missing == 0 {
		i = 0
		for _, id := range ids {
			for dst[i].ID != id {
				i++
			}
			dst[i].N++
		}
		return dst
	}
	n := len(dst)
	if cap(dst) >= n+missing {
		dst = dst[:n+missing]
	} else {
		grown := make([]IDCount, n+missing, (n+missing)*2)
		copy(grown, dst[:n])
		dst = grown
	}
	w := len(dst) - 1
	i, j = n-1, len(ids)-1
	for j >= 0 {
		if i >= 0 && dst[i].ID > ids[j] {
			dst[w] = dst[i]
			i--
		} else if i >= 0 && dst[i].ID == ids[j] {
			dst[w] = IDCount{ID: ids[j], N: dst[i].N + 1}
			i--
			j--
		} else {
			dst[w] = IDCount{ID: ids[j], N: 1}
			j--
		}
		w--
	}
	return dst
}

// DecCounts decrements dst by one for every id in ids (sorted, unique),
// dropping components that reach zero, and returns the compacted vector
// (a snippet leaving a story).
func DecCounts(dst []IDCount, ids []uint32) []IDCount {
	if len(ids) == 0 {
		return dst
	}
	j := 0
	w := 0
	for i := 0; i < len(dst); i++ {
		e := dst[i]
		for j < len(ids) && ids[j] < e.ID {
			j++
		}
		if j < len(ids) && ids[j] == e.ID {
			e.N--
			j++
		}
		if e.N > 0 {
			dst[w] = e
			w++
		}
	}
	return dst[:w]
}
