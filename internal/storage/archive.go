package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/event"
	"repro/internal/vocab"
)

// Archive is the cold-story archive: a reopenable, append-only segment
// log (segment.go) holding what only retirement knows about a retired
// story — identity, extent, mutation counter, aggregate vectors — and
// the IDs of its member snippets, which live in the event store. One
// record archives one story; records written in the same retirement
// pass share a group ticket so reactivation can restore a whole retired
// alignment component at once.
//
// The archive is a write-mostly structure: appends happen on every
// retirement pass and are fsynced before the engine detaches the live
// story; the caller syncs the event store first, so the snippets a
// record names are durable before it is (durable-before-detach — a crash
// can lose a retirement, never a story). Reads happen only on
// reactivation, via ReadStory against a record location, so nothing
// decoded stays resident. Entity and term symbols are stored as strings:
// vocab IDs are process-local and a reopened archive re-interns on
// decode.
//
// An Archive is not safe for concurrent use; the retirement manager
// serialises access behind its own lock.
type Archive struct {
	*segLog
	closed   bool
	warnings []string // records cut at open
}

// archiveVersion versions the record payload (inside the storage frame).
// A record of any other version is cut at open like any undecodable one:
// the store holds every snippet, so a replay rebuilds what it archived.
const archiveVersion = 2

// archiveSegLimit rotates archive segments past this size.
const archiveSegLimit = 64 << 20

// archiveTopTerms caps the descriptive-term fingerprint kept in metadata
// for stories with no entities.
const archiveTopTerms = 8

// ErrArchiveClosed reports use of a closed archive.
var ErrArchiveClosed = errors.New("storage: archive is closed")

// ArchiveLoc addresses one archived-story record on disk.
type ArchiveLoc struct {
	Seg int   // segment index
	Off int64 // byte offset of the record frame
	Len int   // frame length (header + payload)
}

// ArchivedStoryMeta is the resident footprint of one archived story: the
// identity, extent, and fingerprint needed to decide reactivation, plus
// the record location to decode the full state from. Snippets are NOT
// held here — that is the point of retirement.
type ArchivedStoryMeta struct {
	Loc        ArchiveLoc
	Group      uint64 // retirement-pass ticket shared by co-retired stories
	ID         event.StoryID
	Source     event.SourceID
	Gen        uint64
	Start, End time.Time
	Entities   []string // entity fingerprint (all entities, ascending count order not guaranteed)
	TopTerms   []string // fallback fingerprint for entity-free stories
}

// OpenArchive opens (creating if needed) the archive in dir and scans
// every segment, returning the metadata of each intact record in scan
// order (oldest first; for re-archived stories the latest record is the
// live one — callers reconcile by keeping the last meta per story ID).
// Torn tails are truncated as in every segment log. Unlike the event
// store, which skips a well-framed record it cannot decode, the archive
// truncates there too: corruption the CRC cannot explain ends the
// segment's trusted prefix. Every cut is reported by RecoveryWarnings.
func OpenArchive(dir string) (*Archive, []ArchivedStoryMeta, error) {
	a := &Archive{}
	var metas []ArchivedStoryMeta
	log, err := openSegLog(dir, archiveSegLimit, SyncAlways, 0, func(seg int, off int64, payload []byte) error {
		meta, err := decodeArchiveMeta(payload)
		if err != nil {
			return err // matches ErrCorruptRecord: cut the segment here
		}
		meta.Loc = ArchiveLoc{Seg: seg, Off: off, Len: headerSize + len(payload)}
		metas = append(metas, meta)
		return nil
	}, func(seg int, torn int64) {
		if torn > 0 {
			a.warnings = append(a.warnings, fmt.Sprintf(
				"archive segment %d: cut %d bytes of torn or undecodable records", seg, torn))
		}
	})
	if err != nil {
		return nil, nil, err
	}
	a.segLog = log
	return a, metas, nil
}

// RecoveryWarnings returns the records OpenArchive cut, one finding per
// segment; empty means the archive opened clean.
func (a *Archive) RecoveryWarnings() []string {
	return append([]string(nil), a.warnings...)
}

// AppendGroup archives the given stories under one group ticket: all
// records are framed into a single buffer, written with one Write, and
// fsynced before returning, so the caller may detach the live stories
// the moment AppendGroup succeeds. Returns the per-story metadata
// (including disk locations) and the number of bytes appended.
func (a *Archive) AppendGroup(group uint64, watermark time.Time, stories []*event.Story) ([]ArchivedStoryMeta, int64, error) {
	if len(stories) == 0 {
		return nil, 0, nil
	}
	if a.closed {
		return nil, 0, ErrArchiveClosed
	}
	payloads := make([][]byte, len(stories))
	for i, st := range stories {
		payloads[i] = appendArchivedStory(nil, group, watermark, st)
	}
	seg, off, err := a.append(payloads...)
	if err != nil {
		return nil, 0, err
	}
	metas := make([]ArchivedStoryMeta, 0, len(stories))
	var n int64
	for _, payload := range payloads {
		meta, err := decodeArchiveMeta(payload)
		if err != nil {
			return nil, 0, err // unreachable: we just encoded it
		}
		meta.Loc = ArchiveLoc{Seg: seg, Off: off + n, Len: headerSize + len(payload)}
		metas = append(metas, meta)
		n += int64(meta.Loc.Len)
	}
	return metas, n, nil
}

// ReadStory decodes the full archived story at loc, resolving each
// member snippet ID through get, which returns nil for a snippet it
// does not hold; a missing member fails the read. The returned story
// carries its archived Gen; reactivation bumps it via BumpGen so caches
// keyed on (story, gen) observe the transition.
func (a *Archive) ReadStory(loc ArchiveLoc, get func(event.SnippetID) *event.Snippet) (*event.Story, error) {
	if a.closed {
		return nil, ErrArchiveClosed
	}
	payload, err := a.readAt(loc.Seg, loc.Off, loc.Len)
	if err != nil {
		return nil, fmt.Errorf("storage: reading archived story: %w", err)
	}
	return decodeArchivedStory(payload, get)
}

// Reset deletes every archive segment and starts fresh. The pipeline
// calls it when a checkpoint restore fell back to full replay: after a
// replay everything is resident again, so any archived state is stale by
// construction.
func (a *Archive) Reset() error {
	if a.closed {
		return ErrArchiveClosed
	}
	return a.reset()
}

// Close releases the append handle.
func (a *Archive) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	return a.seg.Close()
}

// record payload codec ------------------------------------------------------

// appendArchivedStory encodes one story:
//
//	u8 version | u64 group | i64 watermark | u64 storyID | str source |
//	u64 gen | i64 start | i64 end |
//	u32 #entities (str, u32 count)... | u32 #terms (str, f64 weight)... |
//	u32 #members (u64 snippetID)...
//
// Aggregates are stored as the already-summed values so a restore is
// bit-identical to the archived snapshot; symbols are strings because
// vocab IDs do not survive the process. Members are snippet IDs in
// member order: the snippets themselves are the event store's.
func appendArchivedStory(buf []byte, group uint64, watermark time.Time, st *event.Story) []byte {
	buf = append(buf, archiveVersion)
	buf = binary.LittleEndian.AppendUint64(buf, group)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(watermark.UnixNano()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.ID))
	buf = appendArchiveString(buf, string(st.Source))
	buf = binary.LittleEndian.AppendUint64(buf, st.Gen())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.Start.UnixNano()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.End.UnixNano()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.EntityFreq)))
	for _, ec := range st.EntityFreq {
		buf = appendArchiveString(buf, vocab.Entities.String(ec.ID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ec.N))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.Centroid)))
	for _, tw := range st.Centroid {
		buf = appendArchiveString(buf, vocab.Terms.String(tw.ID))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(tw.W))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.Snippets)))
	for _, sn := range st.Snippets {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sn.ID))
	}
	return buf
}

// archiveCursor walks a record payload. The first read the payload
// cannot satisfy sets err, and every later read returns zero, so a
// decoder checks err once at the end.
type archiveCursor struct {
	buf []byte
	err error
}

var errArchiveCorrupt = fmt.Errorf("%w: archive payload", ErrCorruptRecord)

func (c *archiveCursor) take(n int) []byte {
	if c.err == nil && n > len(c.buf) {
		c.err = errArchiveCorrupt
	}
	if c.err != nil {
		return nil
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b
}

func (c *archiveCursor) u8() byte {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *archiveCursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *archiveCursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (c *archiveCursor) str() string { return string(c.take(int(c.u32()))) }

// count reads an element count that the rest of the payload must be able
// to hold at size bytes or more per element, so a damaged count cannot
// force a giant allocation.
func (c *archiveCursor) count(size int) int {
	n := int(c.u32())
	if c.err == nil && n*size > len(c.buf) {
		c.err = errArchiveCorrupt
	}
	if c.err != nil {
		return 0
	}
	return n
}

// memberIDs reads the member section, which ends the payload, and
// returns its 8-byte IDs.
func (c *archiveCursor) memberIDs() []byte {
	ids := c.take(8 * c.count(8))
	if c.err == nil && len(c.buf) != 0 {
		c.err = errArchiveCorrupt
	}
	return ids
}

// decodeArchiveHeader parses a record payload up to and including the
// aggregate vectors, leaving the cursor at the member section.
func decodeArchiveHeader(c *archiveCursor) (meta ArchivedStoryMeta, entCounts []uint32, terms []string, weights []float64) {
	if v := c.u8(); c.err == nil && v != archiveVersion {
		c.err = fmt.Errorf("%w: unknown archive version %d", ErrCorruptRecord, v)
	}
	meta.Group = c.u64()
	c.u64() // the retirement watermark: informational
	meta.ID = event.StoryID(c.u64())
	meta.Source = event.SourceID(c.str())
	meta.Gen = c.u64()
	meta.Start = time.Unix(0, int64(c.u64())).UTC()
	meta.End = time.Unix(0, int64(c.u64())).UTC()
	ne := c.count(8)
	meta.Entities, entCounts = make([]string, ne), make([]uint32, ne)
	for i := range ne {
		meta.Entities[i], entCounts[i] = c.str(), c.u32()
	}
	nt := c.count(12)
	terms, weights = make([]string, nt), make([]float64, nt)
	for i := range nt {
		terms[i], weights[i] = c.str(), math.Float64frombits(c.u64())
	}
	if ne == 0 {
		meta.TopTerms = topTermsByWeight(terms, weights, archiveTopTerms)
	}
	return meta, entCounts, terms, weights
}

// decodeArchiveMeta parses a record payload into resident metadata,
// checking but not keeping the member IDs.
func decodeArchiveMeta(payload []byte) (ArchivedStoryMeta, error) {
	c := &archiveCursor{buf: payload}
	meta, _, _, _ := decodeArchiveHeader(c)
	c.memberIDs()
	return meta, c.err
}

// decodeArchivedStory parses a record payload into a fully restored
// story: members resolved through get, aggregates re-interned and
// re-sorted by the current process's symbol IDs with their archived
// values intact.
func decodeArchivedStory(payload []byte, get func(event.SnippetID) *event.Snippet) (*event.Story, error) {
	c := &archiveCursor{buf: payload}
	meta, entCounts, terms, weights := decodeArchiveHeader(c)
	ids := c.memberIDs()
	if c.err != nil {
		return nil, c.err
	}
	ents := make([]vocab.IDCount, len(meta.Entities))
	for i, s := range meta.Entities {
		ents[i] = vocab.IDCount{ID: vocab.Entities.ID(s), N: int32(entCounts[i])}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].ID < ents[j].ID })
	cen := make([]vocab.IDWeight, len(terms))
	for i, s := range terms {
		cen[i] = vocab.IDWeight{ID: vocab.Terms.ID(s), W: weights[i]}
	}
	sort.Slice(cen, func(i, j int) bool { return cen[i].ID < cen[j].ID })
	snippets := make([]*event.Snippet, len(ids)/8)
	for i := range snippets {
		id := event.SnippetID(binary.LittleEndian.Uint64(ids[8*i:]))
		if snippets[i] = get(id); snippets[i] == nil {
			return nil, fmt.Errorf("storage: archived story %d: member snippet %d is not in the store", meta.ID, id)
		}
	}
	return event.RestoreStory(meta.ID, meta.Source, snippets, ents, cen, meta.Start, meta.End, meta.Gen), nil
}

// topTermsByWeight returns the k highest-weight terms (ties broken
// alphabetically) — the fallback fingerprint for entity-free stories.
func topTermsByWeight(terms []string, weights []float64, k int) []string {
	idx := make([]int, len(terms))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if weights[idx[a]] != weights[idx[b]] {
			return weights[idx[a]] > weights[idx[b]]
		}
		return terms[idx[a]] < terms[idx[b]]
	})
	if len(idx) > k {
		idx = idx[:k]
	}
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = terms[j]
	}
	return out
}

func appendArchiveString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}
