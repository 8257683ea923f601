// Package sketch provides the compact probabilistic summaries StoryPivot
// uses to compare snippets and stories cheaply (paper §2.4: "we propose to
// abstract from snippets and stories into one common format which we refer
// to as a sketch ... that allows for fast and efficient similarity
// comparisons"). It contains MinHash signatures with a banded LSH index for
// candidate retrieval, built from scratch on FNV-style hashing, stdlib
// only.
package sketch

import (
	"errors"
	"math"
)

// MinHasher computes fixed-length MinHash signatures of string sets. The
// expected fraction of agreeing signature positions between two sets equals
// their Jaccard similarity, which lets alignment filter candidate story
// pairs without touching full entity/term sets.
//
// Hash family: h_i(x) = a_i * fnv64(x) + b_i over the 64-bit ring, a
// standard universal-style construction. A MinHasher is immutable after
// creation and safe for concurrent use.
type MinHasher struct {
	a, b []uint64
}

// NewMinHasher creates a hasher producing signatures of the given length.
// The seed determines the hash family; identical (length, seed) pairs
// produce comparable signatures.
func NewMinHasher(length int, seed uint64) *MinHasher {
	if length <= 0 {
		panic("sketch: signature length must be positive")
	}
	m := &MinHasher{a: make([]uint64, length), b: make([]uint64, length)}
	// SplitMix64 to derive the family from the seed.
	s := seed
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < length; i++ {
		m.a[i] = next() | 1 // odd multiplier
		m.b[i] = next()
	}
	return m
}

// Length returns the signature length.
func (m *MinHasher) Length() int { return len(m.a) }

// Signature is a MinHash signature.
type Signature []uint64

// Sign computes the signature of the given set of string elements. An empty
// set yields the all-max signature, which matches nothing.
func (m *MinHasher) Sign(elems []string) Signature {
	sig := make(Signature, len(m.a))
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	for _, e := range elems {
		h := fnv64(e)
		for i := range sig {
			v := m.a[i]*h + m.b[i]
			if v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

// SignInto is Sign reusing a caller-provided signature buffer (which must
// have the hasher's length); it avoids allocation on hot paths.
func (m *MinHasher) SignInto(sig Signature, elems []string) {
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	for _, e := range elems {
		h := fnv64(e)
		for i := range sig {
			v := m.a[i]*h + m.b[i]
			if v < sig[i] {
				sig[i] = v
			}
		}
	}
}

// Update folds additional elements into an existing signature. Because
// MinHash is a running minimum, updates are associative and commutative:
// a story's sketch can be maintained incrementally as snippets arrive.
func (m *MinHasher) Update(sig Signature, elems []string) {
	for _, e := range elems {
		h := fnv64(e)
		for i := range sig {
			v := m.a[i]*h + m.b[i]
			if v < sig[i] {
				sig[i] = v
			}
		}
	}
}

// UpdateHash folds one pre-hashed element (see HashElem) into sig and
// reports whether any position changed. A running minimum converges as a
// set grows, so callers maintaining an index can skip re-bucketing when
// an update leaves the signature untouched — the common case for mature
// stories.
func (m *MinHasher) UpdateHash(sig Signature, h uint64) bool {
	changed := false
	for i := range sig {
		v := m.a[i]*h + m.b[i]
		if v < sig[i] {
			sig[i] = v
			changed = true
		}
	}
	return changed
}

// ResetSignature fills sig with the empty-set signature (all-max), for
// reuse with UpdateHash/SignInto.
func ResetSignature(sig Signature) {
	for i := range sig {
		sig[i] = math.MaxUint64
	}
}

// Estimate returns the estimated Jaccard similarity between the sets that
// produced the two signatures: the fraction of agreeing positions.
func Estimate(a, b Signature) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	match := 0
	for i := range a {
		if a[i] == b[i] && a[i] != math.MaxUint64 {
			match++
		}
	}
	return float64(match) / float64(len(a))
}

// Clone returns a copy of the signature.
func (s Signature) Clone() Signature { return append(Signature(nil), s...) }

// ErrSignatureLength is returned when signatures of mismatched length meet.
var ErrSignatureLength = errors.New("sketch: signature length mismatch")

// FNV-64a, inlined: the stdlib hash.Hash64 costs one object plus one
// []byte conversion per element, which dominated the sketch-index
// allocation profile. The values are identical to hash/fnv's.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// HashElem returns the FNV-64a hash of the element "<kind>:<s>" without
// materialising the tagged string. Callers that maintain signatures
// incrementally use it with UpdateHash to sketch straight from their own
// representation (e.g. interned vocabulary IDs) with zero garbage.
func HashElem(kind byte, s string) uint64 {
	h := uint64(fnvOffset64)
	h ^= uint64(kind)
	h *= fnvPrime64
	h ^= uint64(':')
	h *= fnvPrime64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// hashBand hashes one band of a signature to a bucket key (little-endian
// byte order, matching the previous encoding/binary implementation).
func hashBand(sig Signature, start, end int) uint64 {
	h := uint64(fnvOffset64)
	for i := start; i < end; i++ {
		v := sig[i]
		for b := 0; b < 64; b += 8 {
			h ^= uint64(byte(v >> b))
			h *= fnvPrime64
		}
	}
	return h
}
