package storage

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/event"
	"repro/internal/obs"
)

// Chunk storage, the one layout of the event store: snippets live in
// fixed-row chunk files under <dir>/chunks/. Every append goes into the
// open chunk (a segment, written like the segment log's, so a crash can
// only tear the final record), which also keeps its bytes in a heap
// append buffer. A sealed chunk lives in its file, in one of two states:
//
//	warm — mmap'd read-only (the page cache owns the bytes);
//	cold — past the warm budget: unmapped, optionally gzip-compressed on
//	       disk (chunk-%08d.spz) and inflated on demand into a small LRU.
//
// No sealed chunk keeps a heap copy: the Go heap holds the open chunk and
// per-chunk metadata (ID range, row count, event-time bounds), and the
// warm budget bounds the mappings; without budgets (Options.Tier nil)
// every sealed chunk stays mapped. A manifest (chunks/manifest.json) caches
// sealed-chunk metadata so reopen does not have to decode the whole
// corpus; the chunk files themselves stay the source of truth, and any
// divergence (crash mid-demotion, deleted manifest) is reconciled at
// open by rescanning the affected chunk.
const (
	chunkPrefix     = "chunk-"
	chunkRawSuffix  = ".log"
	chunkColdSuffix = ".spz"
	manifestName    = "manifest.json"
)

// TierOptions bounds how many sealed chunks stay mapped. The zero value of
// every field selects a sensible default; with Options.Tier nil instead,
// every sealed chunk stays mapped.
type TierOptions struct {
	// ChunkRows is the number of snippets per sealed chunk (default 4096).
	ChunkRows int
	// WarmChunks is how many of the newest sealed chunks stay mmap'd
	// read-only (default 16); older ones go cold.
	WarmChunks int
	// Compress gzips chunks demoted past the warm tier. Off, cold chunks
	// stay raw on disk and are read on demand.
	Compress bool
	// ColdCache is the LRU capacity, in chunks, for inflated cold chunks
	// (default 2).
	ColdCache int
	// PromoteAfter promotes a cold chunk back to the warm tier after this
	// many faults since it went cold (default 4; negative disables).
	PromoteAfter int
}

func (o TierOptions) withDefaults() TierOptions {
	if o.ChunkRows <= 0 {
		o.ChunkRows = 4096
	}
	if o.WarmChunks <= 0 {
		o.WarmChunks = 16
	}
	if o.ColdCache <= 0 {
		o.ColdCache = 2
	}
	if o.PromoteAfter == 0 {
		o.PromoteAfter = 4
	}
	return o
}

// Tier-store instrumentation.
var (
	metTierWarm = obs.GetGauge("storypivot_store_warm_chunks",
		"sealed chunks mmap'd read-only")
	metTierCold = obs.GetGauge("storypivot_store_cold_chunks",
		"chunks demoted to the cold tier")
	metTierFaults = obs.GetCounter("storypivot_store_chunk_faults_total",
		"cold-chunk reads that had to load (and possibly inflate) a chunk")
	metTierPromotions = obs.GetCounter("storypivot_store_chunk_promotions_total",
		"cold chunks promoted back to the warm tier")
	metTierDemotions = obs.GetCounter("storypivot_store_chunk_demotions_total",
		"sealed chunks unmapped past the warm budget")
	metTierColdReadLat = obs.GetHistogram("storypivot_store_cold_read_seconds",
		"latency of snippet reads served from the cold tier")
)

// chunk is the resident metadata (and, unless cold, the bytes) of one
// chunk file.
type chunk struct {
	index int
	// sealed is false only for the single open chunk; cold only for
	// sealed chunks past the warm budget.
	sealed, cold bool
	// rows counts frames, dead ones included, so a row is a frame index.
	rows int
	// dead counts rows whose payload no longer decodes: they keep their
	// frame's place but carry no ID, so no lookup reaches them.
	dead int
	// dense chunks hold exactly the consecutive IDs firstID..lastID in
	// order, so a row is located by subtraction and no per-row ID list
	// is kept resident. Extractor-assigned IDs are monotonic, so almost
	// every chunk is dense. Sparse chunks (out-of-order external IDs) and
	// the open chunk keep ids, the ID of every row, and order, the live
	// rows sorted by ID, which a lookup binary-searches.
	firstID event.SnippetID
	lastID  event.SnippetID
	dense   bool
	ids     []event.SnippetID
	order   []uint32
	// Event-time bounds (unix nanos) for range pruning.
	minTS, maxTS int64
	// data is the raw framed bytes: the append buffer of the open chunk,
	// the file's read-only mapping for a warm chunk, nil for a cold one
	// (cold bytes live in the store's inflate LRU).
	data []byte
	offs []uint32
	// rawBytes is the sealed raw file size (manifest-validated on open).
	rawBytes   int64
	compressed bool
	faults     int
	sources    []event.SourceID
}

func (c *chunk) hasID(id event.SnippetID) (int, bool) {
	if c.rows == c.dead || id < c.firstID || id > c.lastID {
		return 0, false
	}
	if c.dense {
		return int(id - c.firstID), true
	}
	if k := c.search(id); k < len(c.order) && c.ids[c.order[k]] == id {
		return int(c.order[k]), true
	}
	return 0, false
}

// search returns the position in order of the first row whose ID is not
// below id.
func (c *chunk) search(id event.SnippetID) int {
	lo, hi := 0, len(c.order)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.ids[c.order[m]] < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// seal makes the chunk immutable; a dense chunk drops its per-row IDs.
func (c *chunk) seal() {
	c.sealed = true
	if c.dense {
		c.ids, c.order = nil, nil
	}
}

// inflated is one entry of the cold-chunk LRU.
type inflated struct {
	idx  int
	data []byte
	offs []uint32
}

// TierStore manages the chunk files of a tiered store. All methods are
// called with the owning Store's lock held; TierStore itself does no
// locking.
type TierStore struct {
	dir  string
	opts TierOptions
	sync SyncPolicy
	// syncEvery batches fsyncs under SyncBatch.
	syncEvery int

	chunks   []*chunk // ascending index; last is the open chunk
	open     *chunk
	openFile *segment
	buf      []byte // encode buffer reused across appends
	// lookup holds the sealed non-empty chunks in seal order. While
	// ordered is true their ID ranges are disjoint and ascending
	// (monotone extractor IDs, the common case), so a binary search
	// finds the owning chunk; out-of-order IDs probe every chunk whose
	// ID range covers the ID.
	lookup  []*chunk
	ordered bool

	lru []inflated

	rows     int64    // live rows
	warnings []string // partial-corruption findings at open, then failed reads
	dropped  int64    // torn-tail bytes truncated at open

	faults, promotions, demotions uint64
}

func chunkRawPath(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", chunkPrefix, index, chunkRawSuffix))
}

func chunkColdPath(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", chunkPrefix, index, chunkColdSuffix))
}

// chunkManifest is the JSON shape of chunks/manifest.json and of the
// checkpoint v3 tier manifest.
type chunkManifest struct {
	Version int         `json:"version"`
	Rows    int64       `json:"rows"`
	Chunks  []chunkMeta `json:"chunks"`
}

type chunkMeta struct {
	Index      int      `json:"index"`
	Rows       int      `json:"rows"`
	Dead       int      `json:"dead,omitempty"`
	FirstID    uint64   `json:"first_id"`
	LastID     uint64   `json:"last_id"`
	Dense      bool     `json:"dense"`
	IDs        []uint64 `json:"ids,omitempty"`
	MinTS      int64    `json:"min_ts"`
	MaxTS      int64    `json:"max_ts"`
	RawBytes   int64    `json:"raw_bytes"`
	Compressed bool     `json:"compressed,omitempty"`
	State      string   `json:"state"`
	Sources    []string `json:"sources,omitempty"`
}

func (c *chunk) meta() chunkMeta {
	m := chunkMeta{
		Index:      c.index,
		Rows:       c.rows,
		Dead:       c.dead,
		FirstID:    uint64(c.firstID),
		LastID:     uint64(c.lastID),
		Dense:      c.dense,
		MinTS:      c.minTS,
		MaxTS:      c.maxTS,
		RawBytes:   c.rawBytes,
		Compressed: c.compressed,
		State:      "warm",
	}
	if c.cold {
		m.State = "cold"
	}
	if !c.dense {
		m.IDs = make([]uint64, len(c.ids))
		for i, id := range c.ids {
			m.IDs[i] = uint64(id)
		}
	}
	for _, src := range c.sources {
		m.Sources = append(m.Sources, string(src))
	}
	return m
}

// openTierStore opens (creating if necessary) the chunk directory under
// dir, reconciling any crash leftovers: *.tmp files are removed, a chunk
// present both raw and compressed keeps whichever copy is intact
// (preferring raw), and the open chunk's torn tail is truncated exactly
// like a segment's.
func openTierStore(dir string, opts TierOptions, sync SyncPolicy, syncEvery int) (*TierStore, error) {
	cdir := filepath.Join(dir, "chunks")
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		return nil, err
	}
	t := &TierStore{
		dir:       cdir,
		opts:      opts.withDefaults(),
		sync:      sync,
		syncEvery: syncEvery,
		ordered:   true,
	}
	raw, cold, err := t.listChunks()
	if err != nil {
		return nil, err
	}
	manifest := t.loadManifest()
	listed := make(map[int]bool, len(manifest))
	for idx := range manifest {
		listed[idx] = true
	}
	// Every chunk the manifest lists is visited too: one with no file left
	// is reported lost instead of silently skipped.
	indices := unionSorted(raw, cold, listed)
	newest := -1
	for _, idx := range indices {
		if raw[idx] || cold[idx] {
			newest = idx
		}
	}
	for _, idx := range indices {
		last := idx == newest
		meta := manifest[idx]
		if last {
			// The newest chunk may be the open one, which needs its
			// per-row IDs, so it is always rescanned.
			meta = nil
		}
		c, err := t.recoverChunk(idx, raw[idx], cold[idx], meta, last)
		if err != nil {
			return nil, err
		}
		if c == nil {
			continue // unrecoverable chunk; warning already recorded
		}
		t.addChunkLocked(c)
	}
	if t.open == nil || t.open.sealed {
		err = t.startChunkLocked(t.nextIndex())
	} else {
		// Reopen the recovered open chunk for appending.
		t.openFile, err = openSegment(chunkRawPath(t.dir, t.open.index), t.open.index, sync, syncEvery)
	}
	if err != nil {
		return nil, err
	}
	if err := t.rebalanceLocked(); err != nil {
		return nil, err
	}
	t.updateGauges()
	return t, nil
}

// listChunks returns the raw (.log) and compressed (.spz) chunk indices
// present, removing stale temp files on the way.
func (t *TierStore) listChunks() (raw, cold map[int]bool, err error) {
	entries, err := os.ReadDir(t.dir)
	if err != nil {
		return nil, nil, err
	}
	raw, cold = make(map[int]bool), make(map[int]bool)
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(t.dir, name))
		} else if n, ok := fileIndex(name, chunkPrefix, chunkRawSuffix); ok {
			raw[n] = true
		} else if n, ok := fileIndex(name, chunkPrefix, chunkColdSuffix); ok {
			cold[n] = true
		}
	}
	return raw, cold, nil
}

func unionSorted(sets ...map[int]bool) []int {
	seen := make(map[int]bool)
	var out []int
	for _, set := range sets {
		for k := range set {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Ints(out)
	return out
}

// loadManifest reads chunks/manifest.json, returning metadata keyed by
// chunk index. A missing or corrupt manifest is not an error: the chunk
// files are the source of truth and are rescanned instead.
func (t *TierStore) loadManifest() map[int]*chunkMeta {
	out := make(map[int]*chunkMeta)
	data, err := os.ReadFile(filepath.Join(t.dir, manifestName))
	if err != nil {
		return out
	}
	var m chunkManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.warnings = append(t.warnings, fmt.Sprintf("chunk manifest unreadable (%v); rescanning chunks", err))
		return out
	}
	for i := range m.Chunks {
		if cm := m.Chunks[i]; cm.Dead == 0 {
			// A chunk with undecodable rows is rescanned instead: the
			// manifest does not say which rows they are.
			out[cm.Index] = &cm
		}
	}
	return out
}

// recoverChunk rebuilds one chunk's resident state from its on-disk
// files, applying the crash rules. last marks the highest-index chunk,
// which is the only one whose raw file may legitimately have a torn tail.
// A raw chunk is checked through a mapping of its file, which a sealed
// chunk keeps; only the open chunk copies its bytes to the heap.
func (t *TierStore) recoverChunk(idx int, hasRaw, hasCold bool, meta *chunkMeta, last bool) (*chunk, error) {
	rawPath := chunkRawPath(t.dir, idx)
	coldPath := chunkColdPath(t.dir, idx)
	if hasRaw {
		data, err := mapFile(rawPath)
		if err != nil {
			return nil, err
		}
		offs, valid := scanFrames(data)
		if hasCold {
			// Crash between a demotion's compress and its raw unlink, or
			// between a promotion's raw rematerialise and its spz unlink.
			// The raw copy, when intact, is authoritative.
			if valid == len(data) && (meta == nil || len(offs) >= meta.Rows) {
				os.Remove(coldPath)
			} else {
				if err := munmapChunk(data); err != nil {
					return nil, err
				}
				os.Remove(rawPath)
				t.warnings = append(t.warnings, fmt.Sprintf(
					"chunk %d: raw copy torn at %d/%d bytes; using compressed copy", idx, valid, len(data)))
				return t.recoverColdChunk(idx, coldPath, meta)
			}
		}
		if valid < len(data) {
			if !last && meta != nil {
				t.warnings = append(t.warnings, fmt.Sprintf(
					"chunk %d: sealed chunk truncated from %d to %d rows", idx, meta.Rows, len(offs)))
			}
			// The mapping goes before the file shrinks under it.
			if err := munmapChunk(data); err != nil {
				return nil, err
			}
			if err := truncateTorn(rawPath, int64(valid), int64(len(data))); err != nil {
				return nil, err
			}
			t.dropped += int64(len(data) - valid)
			if last {
				t.warnings = append(t.warnings, fmt.Sprintf(
					"chunk %d: truncated %d torn-tail bytes", idx, len(data)-valid))
			}
			if data, err = mapFile(rawPath); err != nil {
				return nil, err
			}
		}
		c := t.buildChunk(idx, data, offs, meta)
		c.rawBytes = int64(valid)
		if !last || c.rows >= t.opts.ChunkRows {
			c.seal()
			return c, nil
		}
		// The open chunk appends to a heap copy of its bytes.
		c.data = bytes.Clone(data)
		return c, munmapChunk(data)
	}
	if hasCold {
		return t.recoverColdChunk(idx, coldPath, meta)
	}
	if meta != nil {
		t.warnings = append(t.warnings, fmt.Sprintf(
			"chunk %d: manifest entry has no chunk file; %d rows lost", idx, meta.Rows))
	}
	return nil, nil
}

// recoverColdChunk rebuilds a compressed-only chunk. With a matching
// manifest entry it stays on disk untouched; otherwise it is inflated
// once to rebuild its metadata.
func (t *TierStore) recoverColdChunk(idx int, coldPath string, meta *chunkMeta) (*chunk, error) {
	if meta != nil && meta.Rows > 0 {
		c := metaChunk(idx, meta)
		c.compressed = true
		c.sealed, c.cold = true, true
		return c, nil
	}
	data, err := inflateFile(coldPath)
	if err != nil {
		t.warnings = append(t.warnings, fmt.Sprintf("chunk %d: compressed chunk unreadable (%v); dropped", idx, err))
		os.Remove(coldPath)
		return nil, nil
	}
	offs, valid := scanFrames(data)
	if valid < len(data) {
		t.warnings = append(t.warnings, fmt.Sprintf(
			"chunk %d: compressed chunk torn at %d/%d bytes", idx, valid, len(data)))
		t.dropped += int64(len(data) - valid)
		data = data[:valid]
	}
	c := t.buildChunk(idx, data, offs, nil)
	c.rawBytes = int64(valid)
	c.compressed = true
	c.seal()
	c.cold = true
	c.data, c.offs = nil, nil
	return c, nil
}

// metaChunk materialises resident chunk state from a manifest entry
// without touching the chunk file.
func metaChunk(idx int, m *chunkMeta) *chunk {
	c := &chunk{
		index:    idx,
		rows:     m.Rows,
		firstID:  event.SnippetID(m.FirstID),
		lastID:   event.SnippetID(m.LastID),
		dense:    m.Dense,
		minTS:    m.MinTS,
		maxTS:    m.MaxTS,
		rawBytes: m.RawBytes,
	}
	if !m.Dense {
		c.ids = make([]event.SnippetID, len(m.IDs))
		c.order = make([]uint32, len(m.IDs))
		for i, id := range m.IDs {
			c.ids[i] = event.SnippetID(id)
			c.order[i] = uint32(i)
		}
		sort.Slice(c.order, func(a, b int) bool { return c.ids[c.order[a]] < c.ids[c.order[b]] })
	}
	for _, s := range m.Sources {
		c.sources = append(c.sources, event.SourceID(s))
	}
	return c
}

// buildChunk decodes raw chunk bytes, which it takes ownership of, into
// resident chunk state. When a trusted manifest entry matches the file
// size, the per-row decode is skipped and metadata comes from the
// manifest.
func (t *TierStore) buildChunk(idx int, data []byte, offs []uint32, meta *chunkMeta) *chunk {
	if meta != nil && meta.RawBytes == int64(len(data)) && meta.Rows == len(offs) {
		c := metaChunk(idx, meta)
		c.data = data
		c.offs = offs
		return c
	}
	c := &chunk{index: idx, dense: true, data: data, offs: offs}
	for _, off := range offs {
		sn, err := event.Decode(framePayload(data, off))
		if err != nil {
			// A well-framed record whose payload no longer decodes: skip
			// it but keep the row so offsets stay aligned with frames.
			metReplayCorrupt.Inc()
			t.warnings = append(t.warnings, fmt.Sprintf("chunk %d: undecodable record skipped", idx))
			c.ids = append(c.ids, 0)
			c.rows++
			c.dead++
			c.dense = false
			continue
		}
		c.noteRow(sn)
	}
	return c
}

// noteRow folds one decoded snippet into the chunk's metadata.
func (c *chunk) noteRow(sn *event.Snippet) {
	ts := sn.Timestamp.UnixNano()
	if c.rows == c.dead {
		c.firstID, c.lastID = sn.ID, sn.ID
		c.minTS, c.maxTS = ts, ts
	} else {
		if sn.ID != c.lastID+1 {
			c.dense = false
		}
		if sn.ID < c.firstID {
			c.firstID = sn.ID
		}
		if sn.ID > c.lastID {
			c.lastID = sn.ID
		}
		if ts < c.minTS {
			c.minTS = ts
		}
		if ts > c.maxTS {
			c.maxTS = ts
		}
	}
	k := c.search(sn.ID)
	c.order = append(c.order, 0)
	copy(c.order[k+1:], c.order[k:])
	c.order[k] = uint32(c.rows)
	c.ids = append(c.ids, sn.ID)
	c.rows++
	found := false
	for _, s := range c.sources {
		if s == sn.Source {
			found = true
			break
		}
	}
	if !found && sn.Source != "" {
		c.sources = append(c.sources, sn.Source)
	}
}

func (t *TierStore) addChunkLocked(c *chunk) {
	t.chunks = append(t.chunks, c)
	if c.sealed {
		t.noteSealed(c)
	} else {
		t.open = c
	}
	t.rows += int64(c.rows - c.dead)
}

// noteSealed registers a sealed chunk with the lookup structures.
func (t *TierStore) noteSealed(c *chunk) {
	if c.rows == c.dead {
		return
	}
	if n := len(t.lookup); n > 0 && c.firstID <= t.lookup[n-1].lastID {
		// While ordered, earlier ranges all end below the previous
		// chunk's lastID, so comparing against it alone is sufficient.
		t.ordered = false
	}
	t.lookup = append(t.lookup, c)
}

func (t *TierStore) nextIndex() int {
	if len(t.chunks) == 0 {
		return 0
	}
	return t.chunks[len(t.chunks)-1].index + 1
}

// startChunkLocked creates and opens a fresh chunk for appending.
func (t *TierStore) startChunkLocked(idx int) error {
	seg, err := openSegment(chunkRawPath(t.dir, idx), idx, t.sync, t.syncEvery)
	if err != nil {
		return err
	}
	c := &chunk{index: idx, dense: true}
	t.chunks = append(t.chunks, c)
	t.open = c
	t.openFile = seg
	return nil
}

// Has reports whether id is stored in any chunk.
func (t *TierStore) Has(id event.SnippetID) bool {
	_, _, ok := t.locate(id)
	return ok
}

// locate finds the chunk and row holding id. The open chunk is probed
// first (recent IDs dominate), then the sealed chunks — by binary
// search over their disjoint ascending ranges in the common case, else
// every chunk whose [firstID, lastID] covers id, newest first. Each
// probe is a subtraction (dense) or a binary search (sparse).
func (t *TierStore) locate(id event.SnippetID) (*chunk, int, bool) {
	if row, ok := t.open.hasID(id); ok {
		return t.open, row, true
	}
	if t.ordered {
		i := sort.Search(len(t.lookup), func(i int) bool { return t.lookup[i].firstID > id })
		if i == 0 {
			return nil, 0, false
		}
		c := t.lookup[i-1]
		row, ok := c.hasID(id)
		return c, row, ok
	}
	for i := len(t.lookup) - 1; i >= 0; i-- {
		if row, ok := t.lookup[i].hasID(id); ok {
			return t.lookup[i], row, true
		}
	}
	return nil, 0, false
}

// Append frames and persists one snippet into the open chunk, sealing
// and rebalancing the tiers when the chunk fills.
func (t *TierStore) Append(sn *event.Snippet) error {
	t.buf = event.AppendEncode(t.buf[:0], sn)
	frame, err := t.openFile.append(t.buf)
	if err != nil {
		return err
	}
	c := t.open
	c.offs = append(c.offs, uint32(len(c.data)))
	c.data = append(c.data, frame...)
	c.rawBytes = int64(len(c.data))
	c.noteRow(sn)
	t.rows++
	metAppends.Inc()
	metAppendBytes.Add(uint64(len(frame)))
	if c.rows >= t.opts.ChunkRows {
		return t.sealOpenLocked()
	}
	return nil
}

// sealOpenLocked seals the open chunk, which from then on reads from a
// mapping of its file instead of the append buffer, starts a fresh one,
// rebalances the tiers, and persists the manifest.
func (t *TierStore) sealOpenLocked() error {
	c := t.open
	if err := t.openFile.Close(); err != nil {
		return err
	}
	t.openFile = nil
	data, err := mapFile(chunkRawPath(t.dir, c.index))
	if err != nil {
		return err
	}
	c.data = data
	c.seal()
	t.noteSealed(c)
	if err := t.startChunkLocked(c.index + 1); err != nil {
		return err
	}
	if err := t.rebalanceLocked(); err != nil {
		return err
	}
	t.updateGauges()
	return t.writeManifest()
}

// rebalanceLocked enforces the warm budget, demoting the oldest mapped
// chunks past it. Age is the chunk index, not promotion recency: a
// promoted chunk older than the warm window's tail must not evict newer
// chunks.
func (t *TierStore) rebalanceLocked() error {
	var warm []*chunk // ascending index, as t.chunks
	for _, c := range t.chunks {
		if c.sealed && !c.cold {
			warm = append(warm, c)
		}
	}
	for _, c := range warm[:max(len(warm)-t.opts.WarmChunks, 0)] {
		if err := t.demote(c); err != nil {
			return err
		}
	}
	return nil
}

// demote releases a chunk's mapping and, when compression is enabled,
// gzips the raw file (tmp + fsync + rename, then unlink raw) so only the
// compressed copy remains.
func (t *TierStore) demote(c *chunk) error {
	if err := munmapChunk(c.data); err != nil {
		return err
	}
	c.data, c.offs = nil, nil
	c.cold = true
	c.faults = 0
	if t.opts.Compress && !c.compressed {
		if err := t.compressChunk(c); err != nil {
			return err
		}
	}
	t.demotions++
	metTierDemotions.Inc()
	return nil
}

func (t *TierStore) compressChunk(c *chunk) error {
	rawPath := chunkRawPath(t.dir, c.index)
	data, err := os.ReadFile(rawPath)
	if err != nil {
		return err
	}
	coldPath := chunkColdPath(t.dir, c.index)
	if err := AtomicWrite(coldPath, func(w io.Writer) error {
		zw := gzip.NewWriter(w)
		if _, err := zw.Write(data); err != nil {
			return err
		}
		return zw.Close()
	}); err != nil {
		return err
	}
	c.compressed = true
	// Crash window: both copies exist until this unlink; open prefers
	// the intact raw copy and re-deletes the spz.
	return os.Remove(rawPath)
}

func inflateFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return io.ReadAll(zr)
}

// coldBytes returns a cold chunk's raw bytes and offsets, serving from
// the inflate LRU when possible and faulting the chunk in otherwise.
// Enough faults promote the chunk back to the warm tier.
func (t *TierStore) coldBytes(c *chunk) ([]byte, []uint32, error) {
	for i, e := range t.lru {
		if e.idx == c.index {
			// Refresh recency.
			t.lru = append(append(t.lru[:i:i], t.lru[i+1:]...), e)
			return e.data, e.offs, nil
		}
	}
	span := metTierColdReadLat.Start()
	var data []byte
	var err error
	if c.compressed {
		data, err = inflateFile(chunkColdPath(t.dir, c.index))
	} else {
		data, err = os.ReadFile(chunkRawPath(t.dir, c.index))
	}
	if err != nil {
		return nil, nil, err
	}
	offs, valid := scanFrames(data)
	data = data[:valid]
	t.faults++
	metTierFaults.Inc()
	t.lru = append(t.lru, inflated{idx: c.index, data: data, offs: offs})
	if len(t.lru) > t.opts.ColdCache {
		t.lru = append(t.lru[:0:0], t.lru[1:]...)
	}
	span.End()
	c.faults++
	if t.opts.PromoteAfter > 0 && c.faults >= t.opts.PromoteAfter {
		if err := t.promote(c, data, offs); err != nil {
			return nil, nil, err
		}
	}
	return data, offs, nil
}

// promote moves a cold chunk back to the warm tier: the raw file is
// rematerialised if only the compressed copy exists (tmp + fsync +
// rename, then unlink spz), then mmap'd read-only.
func (t *TierStore) promote(c *chunk, data []byte, offs []uint32) error {
	rawPath := chunkRawPath(t.dir, c.index)
	if c.compressed {
		if err := AtomicWrite(rawPath, func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		}); err != nil {
			return err
		}
		c.compressed = false
		// Crash window mirror of demotion: both copies exist until the
		// unlink; open prefers the raw copy.
		if err := os.Remove(chunkColdPath(t.dir, c.index)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	mdata, err := mapFile(rawPath)
	if err != nil {
		return err
	}
	c.data, c.offs = mdata, offs
	c.cold = false
	c.faults = 0
	// Drop the promoted chunk from the inflate LRU; it is served from
	// the mapping now.
	for i, e := range t.lru {
		if e.idx == c.index {
			t.lru = append(t.lru[:i:i], t.lru[i+1:]...)
			break
		}
	}
	t.promotions++
	metTierPromotions.Inc()
	if err := t.rebalanceLocked(); err != nil {
		return err
	}
	t.updateGauges()
	return t.writeManifest()
}

// rowBytes returns the raw bytes and frame offset table for a chunk,
// whatever its tier.
func (t *TierStore) rowBytes(c *chunk) ([]byte, []uint32, error) {
	if c.cold {
		return t.coldBytes(c)
	}
	return c.data, c.offs, nil
}

// Get decodes and returns the snippet with the given ID, or nil.
func (t *TierStore) Get(id event.SnippetID) (*event.Snippet, error) {
	c, row, ok := t.locate(id)
	if !ok {
		return nil, nil
	}
	data, offs, err := t.rowBytes(c)
	if err != nil {
		return nil, err
	}
	if row >= len(offs) {
		return nil, fmt.Errorf("storage: chunk %d row %d beyond recovered frames", c.index, row)
	}
	sn, err := event.Decode(framePayload(data, offs[row]))
	if err != nil {
		return nil, fmt.Errorf("storage: chunk %d row %d: %w", c.index, row, err)
	}
	return sn, nil
}

// Scan invokes fn with every stored snippet in chunk order. The decoded
// snippet is freshly allocated and owned by fn.
func (t *TierStore) Scan(fn func(*event.Snippet) error) error {
	for _, c := range t.chunks {
		if c.rows == c.dead {
			continue
		}
		data, offs, err := t.rowBytes(c)
		if err != nil {
			return err
		}
		for _, off := range offs {
			sn, derr := event.Decode(framePayload(data, off))
			if derr != nil {
				continue // counted at open
			}
			if err := fn(sn); err != nil {
				return err
			}
		}
	}
	return nil
}

// Rows returns the number of stored snippets.
func (t *TierStore) Rows() int64 { return t.rows }

func (t *TierStore) updateGauges() {
	warm, cold := t.tierCounts()
	metTierWarm.Set(int64(warm))
	metTierCold.Set(int64(cold))
}

// tierCounts counts the sealed chunks by state; the open chunk is in
// neither count.
func (t *TierStore) tierCounts() (warm, cold int) {
	for _, c := range t.chunks {
		switch {
		case c.cold:
			cold++
		case c.sealed:
			warm++
		}
	}
	return warm, cold
}

func (t *TierStore) manifest() chunkManifest {
	m := chunkManifest{Version: 1, Rows: t.rows}
	for _, c := range t.chunks {
		if !c.sealed {
			continue
		}
		m.Chunks = append(m.Chunks, c.meta())
	}
	return m
}

func (t *TierStore) writeManifest() error {
	m := t.manifest()
	return AtomicWrite(filepath.Join(t.dir, manifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		return enc.Encode(m)
	})
}

// ManifestJSON serialises the current chunk manifest (for checkpoint v3).
func (t *TierStore) ManifestJSON() ([]byte, error) {
	return json.Marshal(t.manifest())
}

// ReconcileManifest compares a previously checkpointed manifest against
// the live chunk state and returns human-readable divergence findings.
// The chunk files have already self-healed at open; the findings only
// surface what changed behind the checkpoint's back, mirroring the
// retire manager's archive reconcile.
func (t *TierStore) ReconcileManifest(data []byte) []string {
	var cp chunkManifest
	if err := json.Unmarshal(data, &cp); err != nil {
		return []string{fmt.Sprintf("checkpoint tier manifest unreadable: %v", err)}
	}
	live := make(map[int]*chunk, len(t.chunks))
	for _, c := range t.chunks {
		live[c.index] = c
	}
	var out []string
	for _, cm := range cp.Chunks {
		c, ok := live[cm.Index]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf(
				"tier reconcile: checkpointed chunk %d (%d rows) missing on disk", cm.Index, cm.Rows))
		case c.rows != cm.Rows:
			out = append(out, fmt.Sprintf(
				"tier reconcile: chunk %d has %d rows, checkpoint recorded %d", cm.Index, c.rows, cm.Rows))
		}
	}
	return out
}

// TierStats summarises the tier state for tests and benchmarks: Warm and
// Cold count the sealed chunks mapped and unmapped.
type TierStats struct {
	Warm, Cold                    int
	Rows                          int64
	Faults, Promotions, Demotions uint64
}

func (t *TierStore) Stats() TierStats {
	warm, cold := t.tierCounts()
	return TierStats{
		Warm: warm, Cold: cold,
		Rows:   t.rows,
		Faults: t.faults, Promotions: t.promotions, Demotions: t.demotions,
	}
}

// Sync fsyncs the open chunk.
func (t *TierStore) Sync() error { return t.openFile.Sync() }

// Close syncs the open chunk, releases every mapping, and persists the
// manifest.
func (t *TierStore) Close() error {
	var first error
	if t.openFile != nil {
		first = t.openFile.Close()
		t.openFile = nil
	}
	for _, c := range t.chunks {
		if c.sealed && !c.cold {
			if err := munmapChunk(c.data); err != nil && first == nil {
				first = err
			}
			c.data = nil
		}
	}
	if err := t.writeManifest(); err != nil && first == nil {
		first = err
	}
	return first
}

// migrateSegments moves a store written as a flat segment log
// (seg-*.log in dir) into chunks, once: it appends every decodable
// record not already stored, makes the chunks durable and the manifest
// current, and only then unlinks the segments. A crash before the
// unlink leaves the segments in place and the next open repeats the
// migration; the rows an earlier attempt stored are skipped, so the
// repeat neither loses nor duplicates a row.
func (t *TierStore) migrateSegments(dir string) error {
	corrupt := 0
	indices, err := scanLog(dir, func(_ int, _ int64, payload []byte) error {
		metReplayed.Inc()
		sn, derr := event.Decode(payload)
		if derr != nil {
			corrupt++
			metReplayCorrupt.Inc()
			return nil
		}
		if t.Has(sn.ID) {
			return nil
		}
		return t.Append(sn)
	}, func(seg int, torn int64) {
		if corrupt > 0 {
			t.warnings = append(t.warnings, fmt.Sprintf(
				"segment %d: skipped %d well-framed records with undecodable payloads", seg, corrupt))
			corrupt = 0
		}
		if torn > 0 {
			t.warnings = append(t.warnings, fmt.Sprintf(
				"segment %d: truncated %d torn-tail bytes", seg, torn))
			t.dropped += torn
		}
	})
	if err != nil || len(indices) == 0 {
		return err
	}
	// writeManifest fsyncs the chunk directory, making the chunk files
	// created above durable before the segments go.
	if err := t.Sync(); err != nil {
		return err
	}
	if err := t.writeManifest(); err != nil {
		return err
	}
	for _, idx := range indices {
		if err := os.Remove(segmentPath(dir, idx)); err != nil {
			return err
		}
	}
	return nil
}
