// Package vocab provides the process-wide vocabulary interner that backs
// StoryPivot's flat similarity kernel: every description token and entity
// string is mapped once to a dense uint32 symbol, and all hot-path
// similarity arithmetic (snippet-vs-story, story-vs-story) runs over
// sorted []IDWeight / []IDCount sparse vectors instead of string-keyed
// maps. Interning happens at the edges (tokenization, normalization,
// codec decode); the kernels in internal/similarity then do merge walks
// over integer IDs with zero allocation per comparison.
//
// The interner is append-only: symbols are never removed, so readers can
// run lock-free. ID lookup takes a sync.Map fast path; the id→string
// table is published as an immutable slice header behind an atomic
// pointer. Only the (rare) first sighting of a new string takes the
// writer mutex.
package vocab

import (
	"sync"
	"sync/atomic"
)

// Interner is an append-only string→uint32 symbol table safe for
// concurrent use. The zero value is NOT ready; use NewInterner.
type Interner struct {
	ids sync.Map // string → uint32, lock-free reads

	mu   sync.Mutex               // serialises writers
	list []string                 // authoritative id → string, guarded by mu
	snap atomic.Pointer[[]string] // published immutable view of list
}

// NewInterner creates an empty interner.
func NewInterner() *Interner {
	in := &Interner{}
	empty := []string(nil)
	in.snap.Store(&empty)
	return in
}

// Process-wide tables. Tokens and entities are separate namespaces: a
// token "ukraine" and an entity "ukraine" are distinct symbols.
var (
	// Terms interns description tokens.
	Terms = NewInterner()
	// Entities interns entity identifiers.
	Entities = NewInterner()
)

// ID returns the symbol for s, interning it on first sight. The fast
// path (already-interned strings, i.e. every string after warm-up) is a
// single lock-free map load.
func (in *Interner) ID(s string) uint32 {
	if v, ok := in.ids.Load(s); ok {
		return v.(uint32)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if v, ok := in.ids.Load(s); ok { // raced with another writer
		return v.(uint32)
	}
	id := uint32(len(in.list))
	in.list = append(in.list, s)
	view := in.list // immutable header: writers only ever append
	in.snap.Store(&view)
	in.ids.Store(s, id)
	return id
}

// Lookup returns the symbol for s without interning, reporting whether
// it exists. Lock-free.
func (in *Interner) Lookup(s string) (uint32, bool) {
	v, ok := in.ids.Load(s)
	if !ok {
		return 0, false
	}
	return v.(uint32), true
}

// String returns the string for a symbol previously returned by ID.
// Lock-free for any id the caller legitimately holds; unknown ids yield
// the empty string.
func (in *Interner) String(id uint32) string {
	view := *in.snap.Load()
	if int(id) < len(view) {
		return view[id]
	}
	// The caller's id may have been published between our snapshot load
	// and now; fall back to the authoritative list.
	in.mu.Lock()
	defer in.mu.Unlock()
	if int(id) < len(in.list) {
		return in.list[id]
	}
	return ""
}

// Len returns the number of interned symbols.
func (in *Interner) Len() int {
	return len(*in.snap.Load())
}
