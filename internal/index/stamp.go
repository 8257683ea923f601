package index

import (
	"sync/atomic"

	"repro/internal/vocab"
)

// Publish deltas for the query cache. A cached page is the answer to one
// query at one epoch, and it changes only if a later publish changes an
// integrated story carrying one of the query's symbols: its entity, or
// one of its search terms. Publish stamps those symbols; a Stamp carries
// the query's side; Current compares the two.

// indexIDs numbers indexes, so a Stamp names the index that answered it
// without pinning it: a page read from a swapped-out index is never
// current for its replacement.
var indexIDs atomic.Uint64

// Stamp is the validity witness of one query answer: the index that
// answered it, the publish epoch it read under the same read lock, and
// the symbols the answer depends on. Symbols are kept as strings and
// resolved when checked, so a term no story carried when the query ran
// still invalidates the answer once a publish first stamps it. The zero
// Stamp is never current.
type Stamp struct {
	index  uint64
	epoch  uint64
	entity string   // the entity of an entity or timeline query
	terms  []string // the processed tokens of a search
}

// Current reports whether an answer stamped st still holds on x: x gave
// it, and no publish after st's epoch stamped one of its symbols. It
// takes no lock — a cache hit never waits on a Publish in progress,
// which it may overtake: the hit then answers as of the last completed
// publish, as a query under the read lock would.
func (x *Index) Current(st *Stamp) bool {
	if st.index != x.id {
		return false
	}
	if st.epoch == x.epoch.Load() {
		return true // no publish began since the read, so none stamped past it
	}
	if st.entity != "" {
		if id, ok := vocab.Entities.Lookup(st.entity); ok && x.entStamps.get(id) > st.epoch {
			return false
		}
	}
	for _, tok := range st.terms {
		if id, ok := vocab.Terms.Lookup(tok); ok && x.termStamps.get(id) > st.epoch {
			return false
		}
	}
	return true
}

// stampChunkBits sizes the fixed chunks of a stampTable (1024 symbols).
const stampChunkBits = 10

type stampChunk [1 << stampChunkBits]atomic.Uint64

// stampTable maps a vocab ID to the epoch of the last publish that
// stamped it. Publish writes it under the index's write lock and Current
// reads it with no lock. It is a spine of fixed chunks: adding a chunk
// copies the spine, never a chunk, so a reader holding an older spine
// reads the same chunks for every ID that spine covers.
type stampTable struct {
	spine atomic.Pointer[[]*stampChunk]
}

// get returns id's stamp, 0 if no publish stamped it.
func (t *stampTable) get(id uint32) uint64 {
	sp, c := t.spine.Load(), int(id>>stampChunkBits)
	if sp == nil || c >= len(*sp) || (*sp)[c] == nil {
		return 0
	}
	return (*sp)[c][id&(1<<stampChunkBits-1)].Load()
}

// set stamps id with epoch. The caller holds the index's write lock.
func (t *stampTable) set(id uint32, epoch uint64) {
	var spine []*stampChunk
	if sp := t.spine.Load(); sp != nil {
		spine = *sp
	}
	c := int(id >> stampChunkBits)
	if c >= len(spine) || spine[c] == nil {
		grown := make([]*stampChunk, max(c+1, len(spine)))
		copy(grown, spine)
		grown[c] = new(stampChunk)
		t.spine.Store(&grown)
		spine = grown
	}
	spine[c][id&(1<<stampChunkBits-1)].Store(epoch)
}
