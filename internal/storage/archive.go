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
// log (segment.go) holding the full state of retired stories — members,
// aggregate vectors, and mutation counter. One record archives one story;
// records written in the same retirement pass share a group ticket so
// reactivation can restore a whole retired alignment component at once.
//
// The archive is a write-mostly structure: appends happen on every
// retirement pass and are fsynced before the engine detaches the live
// story (durable-before-detach — a crash can lose a retirement, never a
// story). Reads happen only on reactivation, via ReadStory against a
// record location, so nothing decoded stays resident. Entity and term
// symbols are stored as strings: vocab IDs are process-local and a
// reopened archive re-interns on decode.
//
// An Archive is not safe for concurrent use; the retirement manager
// serialises access behind its own lock.
type Archive struct {
	*segLog
	closed bool
}

// archiveVersion versions the record payload (inside the storage frame).
const archiveVersion = 1

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
// segment's trusted prefix.
func OpenArchive(dir string) (*Archive, []ArchivedStoryMeta, error) {
	var metas []ArchivedStoryMeta
	log, err := openSegLog(dir, archiveSegLimit, SyncAlways, 0, func(seg int, off int64, payload []byte) error {
		meta, err := decodeArchiveMeta(payload)
		if err != nil {
			return err // matches ErrCorruptRecord: cut the segment here
		}
		meta.Loc = ArchiveLoc{Seg: seg, Off: off, Len: headerSize + len(payload)}
		metas = append(metas, meta)
		return nil
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	return &Archive{segLog: log}, metas, nil
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

// ReadStory decodes the full archived story at loc. The returned story
// carries its archived Gen; reactivation bumps it via BumpGen so caches
// keyed on (story, gen) observe the transition.
func (a *Archive) ReadStory(loc ArchiveLoc) (*event.Story, error) {
	if a.closed {
		return nil, ErrArchiveClosed
	}
	payload, err := a.readAt(loc.Seg, loc.Off, loc.Len)
	if err != nil {
		return nil, fmt.Errorf("storage: reading archived story: %w", err)
	}
	return decodeArchivedStory(payload)
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
//	u32 #snippets (u32 len, snippet-encoding)...
//
// Aggregates are stored as the already-summed values so a restore is
// bit-identical to the archived snapshot; symbols are strings because
// vocab IDs do not survive the process.
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
		lenPos := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		buf = event.AppendEncode(buf, sn)
		binary.LittleEndian.PutUint32(buf[lenPos:], uint32(len(buf)-lenPos-4))
	}
	return buf
}

// archiveCursor walks a record payload. termStrings carries the decoded
// term symbols from the header to the full-story decode (metadata-only
// decodes discard it).
type archiveCursor struct {
	buf         []byte
	termStrings []string
}

var errArchiveCorrupt = fmt.Errorf("%w: archive payload", ErrCorruptRecord)

func (c *archiveCursor) u8() (byte, error) {
	if len(c.buf) < 1 {
		return 0, errArchiveCorrupt
	}
	v := c.buf[0]
	c.buf = c.buf[1:]
	return v, nil
}

func (c *archiveCursor) u32() (uint32, error) {
	if len(c.buf) < 4 {
		return 0, errArchiveCorrupt
	}
	v := binary.LittleEndian.Uint32(c.buf)
	c.buf = c.buf[4:]
	return v, nil
}

func (c *archiveCursor) u64() (uint64, error) {
	if len(c.buf) < 8 {
		return 0, errArchiveCorrupt
	}
	v := binary.LittleEndian.Uint64(c.buf)
	c.buf = c.buf[8:]
	return v, nil
}

func (c *archiveCursor) str() (string, error) {
	n, err := c.u32()
	if err != nil {
		return "", err
	}
	if n > maxRecordSize || int(n) > len(c.buf) {
		return "", errArchiveCorrupt
	}
	s := string(c.buf[:n])
	c.buf = c.buf[n:]
	return s, nil
}

func (c *archiveCursor) skip(n int) error {
	if n < 0 || n > len(c.buf) {
		return errArchiveCorrupt
	}
	c.buf = c.buf[n:]
	return nil
}

// decodeArchiveHeader parses the shared prefix of a record payload up to
// and including the aggregate vectors, leaving the cursor at the snippet
// section. keepWeights selects whether term weights are materialised.
func decodeArchiveHeader(c *archiveCursor) (meta ArchivedStoryMeta, entCounts []uint32, termWeights []float64, err error) {
	v, err := c.u8()
	if err != nil {
		return meta, nil, nil, err
	}
	if v != archiveVersion {
		return meta, nil, nil, fmt.Errorf("%w: unknown archive version %d", ErrCorruptRecord, v)
	}
	if meta.Group, err = c.u64(); err != nil {
		return meta, nil, nil, err
	}
	wm, err := c.u64()
	if err != nil {
		return meta, nil, nil, err
	}
	_ = wm // informational; not surfaced in meta
	id, err := c.u64()
	if err != nil {
		return meta, nil, nil, err
	}
	meta.ID = event.StoryID(id)
	src, err := c.str()
	if err != nil {
		return meta, nil, nil, err
	}
	meta.Source = event.SourceID(src)
	if meta.Gen, err = c.u64(); err != nil {
		return meta, nil, nil, err
	}
	start, err := c.u64()
	if err != nil {
		return meta, nil, nil, err
	}
	end, err := c.u64()
	if err != nil {
		return meta, nil, nil, err
	}
	meta.Start = time.Unix(0, int64(start)).UTC()
	meta.End = time.Unix(0, int64(end)).UTC()
	ne, err := c.u32()
	if err != nil {
		return meta, nil, nil, err
	}
	if int64(ne)*5 > int64(len(c.buf)) {
		return meta, nil, nil, errArchiveCorrupt
	}
	meta.Entities = make([]string, 0, ne)
	entCounts = make([]uint32, 0, ne)
	for i := uint32(0); i < ne; i++ {
		s, err := c.str()
		if err != nil {
			return meta, nil, nil, err
		}
		n, err := c.u32()
		if err != nil {
			return meta, nil, nil, err
		}
		meta.Entities = append(meta.Entities, s)
		entCounts = append(entCounts, n)
	}
	nt, err := c.u32()
	if err != nil {
		return meta, nil, nil, err
	}
	if int64(nt)*12 > int64(len(c.buf)) {
		return meta, nil, nil, errArchiveCorrupt
	}
	terms := make([]string, 0, nt)
	termWeights = make([]float64, 0, nt)
	for i := uint32(0); i < nt; i++ {
		s, err := c.str()
		if err != nil {
			return meta, nil, nil, err
		}
		w, err := c.u64()
		if err != nil {
			return meta, nil, nil, err
		}
		terms = append(terms, s)
		termWeights = append(termWeights, math.Float64frombits(w))
	}
	if len(meta.Entities) == 0 {
		meta.TopTerms = topTermsByWeight(terms, termWeights, archiveTopTerms)
	}
	// The full term list rides back via closure state only when decoding
	// the complete story; metadata keeps just the fingerprint.
	c.termStrings = terms
	return meta, entCounts, termWeights, nil
}

// decodeArchiveMeta parses a record payload into resident metadata,
// skipping over the snippet bytes.
func decodeArchiveMeta(payload []byte) (ArchivedStoryMeta, error) {
	c := &archiveCursor{buf: payload}
	meta, _, _, err := decodeArchiveHeader(c)
	if err != nil {
		return meta, err
	}
	ns, err := c.u32()
	if err != nil {
		return meta, err
	}
	for i := uint32(0); i < ns; i++ {
		n, err := c.u32()
		if err != nil {
			return meta, err
		}
		if err := c.skip(int(n)); err != nil {
			return meta, err
		}
	}
	if len(c.buf) != 0 {
		return meta, errArchiveCorrupt
	}
	return meta, nil
}

// decodeArchivedStory parses a record payload into a fully restored
// story: snippets decoded through the event codec (which re-interns
// them), aggregates re-interned and re-sorted by the current process's
// symbol IDs with their archived values intact.
func decodeArchivedStory(payload []byte) (*event.Story, error) {
	c := &archiveCursor{buf: payload}
	meta, entCounts, termWeights, err := decodeArchiveHeader(c)
	if err != nil {
		return nil, err
	}
	ents := make([]vocab.IDCount, len(meta.Entities))
	for i, s := range meta.Entities {
		ents[i] = vocab.IDCount{ID: vocab.Entities.ID(s), N: int32(entCounts[i])}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].ID < ents[j].ID })
	cen := make([]vocab.IDWeight, len(c.termStrings))
	for i, s := range c.termStrings {
		cen[i] = vocab.IDWeight{ID: vocab.Terms.ID(s), W: termWeights[i]}
	}
	sort.Slice(cen, func(i, j int) bool { return cen[i].ID < cen[j].ID })
	ns, err := c.u32()
	if err != nil {
		return nil, err
	}
	if int64(ns)*4 > int64(len(c.buf)) {
		return nil, errArchiveCorrupt
	}
	snippets := make([]*event.Snippet, 0, ns)
	for i := uint32(0); i < ns; i++ {
		n, err := c.u32()
		if err != nil {
			return nil, err
		}
		if int(n) > len(c.buf) {
			return nil, errArchiveCorrupt
		}
		sn, err := event.Decode(c.buf[:n])
		if err != nil {
			return nil, err
		}
		snippets = append(snippets, sn)
		c.buf = c.buf[n:]
	}
	if len(c.buf) != 0 {
		return nil, errArchiveCorrupt
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
