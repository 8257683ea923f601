package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/event"
)

// tsnip builds a snippet with display text, the payload the tiers exist
// to keep off-heap.
func tsnip(id event.SnippetID, d int) *event.Snippet {
	s := snip(id, "ap", d, event.Entity("kiev"))
	s.Text = fmt.Sprintf("snippet %d body text with some padding to compress", id)
	s.Document = fmt.Sprintf("doc-%d", id)
	return s
}

func tinyTier() *TierOptions {
	return &TierOptions{ChunkRows: 4, WarmChunks: 3, Compress: true, ColdCache: 1, PromoteAfter: -1}
}

func openTiered(t *testing.T, dir string, opts *TierOptions) *Store {
	t.Helper()
	st, err := Open(dir, Options{Tier: opts})
	if err != nil {
		t.Fatalf("Open tiered: %v", err)
	}
	return st
}

func TestTierAppendGetRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st := openTiered(t, dir, tinyTier())
	defer st.Close()
	const n = 50
	for i := 1; i <= n; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), 1+i%20)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if st.Len() != n {
		t.Fatalf("Len = %d, want %d", st.Len(), n)
	}
	for i := 1; i <= n; i++ {
		sn := st.Get(event.SnippetID(i))
		if sn == nil {
			t.Fatalf("Get(%d) = nil", i)
		}
		if want := fmt.Sprintf("snippet %d body text with some padding to compress", i); sn.Text != want {
			t.Fatalf("Get(%d).Text = %q, want %q", i, sn.Text, want)
		}
		text, doc, ok := st.SnippetText(event.SnippetID(i))
		if !ok || text != sn.Text || doc != sn.Document {
			t.Fatalf("SnippetText(%d) = %q,%q,%v", i, text, doc, ok)
		}
	}
	if err := st.Append(tsnip(3, 3)); err == nil {
		t.Fatal("duplicate append accepted")
	}
	stats := st.TierStats()
	// 50 rows / 4 per chunk = 12 sealed + open. Budget: 3 sealed chunks
	// mapped, the rest cold.
	if stats.Cold == 0 || stats.Warm == 0 {
		t.Fatalf("expected both tiers populated: %+v", stats)
	}
	if stats.Warm > 3 {
		t.Fatalf("warm budget exceeded: %+v", stats)
	}
	// Compressed cold chunks must actually exist (and their raw twins not).
	spz, _ := filepath.Glob(filepath.Join(dir, "chunks", "*.spz"))
	if len(spz) == 0 {
		t.Fatal("no compressed chunk files on disk")
	}
}

// TestTieredAccessorsMatchFlat drives the same corpus through a store
// with no budgets (every sealed chunk mapped) and one with tiny budgets
// (most chunks cold and compressed) and asserts every accessor answers
// identically.
func TestTieredAccessorsMatchFlat(t *testing.T) {
	flat, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	tiered := openTiered(t, t.TempDir(), tinyTier())
	defer tiered.Close()

	srcs := []event.SourceID{"ap", "bbc", "rt"}
	for i := 1; i <= 60; i++ {
		sn := snip(event.SnippetID(i), srcs[i%3], 1+i%25, event.Entity(fmt.Sprintf("e%d", i%5)))
		sn.Text = fmt.Sprintf("text %d", i)
		if err := flat.Append(sn.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := tiered.Append(sn.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	ids := func(sns []*event.Snippet) []event.SnippetID {
		out := make([]event.SnippetID, len(sns))
		for i, sn := range sns {
			out[i] = sn.ID
		}
		return out
	}
	if f, g := flat.All(), tiered.All(); !reflect.DeepEqual(f, g) {
		t.Fatalf("All: flat %v vs tiered %v", ids(f), ids(g))
	}
	if ts := flat.TierStats(); ts.Cold != 0 || ts.Demotions != 0 {
		t.Fatalf("store without budgets demoted chunks: %+v", ts)
	}
	if flat.Len() != tiered.Len() {
		t.Fatalf("Len: %d vs %d", flat.Len(), tiered.Len())
	}
	for i := 0; i <= 61; i++ { // 0 and 61 are absent from both
		id := event.SnippetID(i)
		f, g := flat.Get(id), tiered.Get(id)
		if !reflect.DeepEqual(f, g) {
			t.Fatalf("Get(%d): flat %+v vs tiered %+v", id, f, g)
		}
		ft, fd, fok := flat.SnippetText(id)
		gt, gd, gok := tiered.SnippetText(id)
		if ft != gt || fd != gd || fok != gok {
			t.Fatalf("SnippetText(%d): flat (%q, %q, %v) vs tiered (%q, %q, %v)", id, ft, fd, fok, gt, gd, gok)
		}
	}
}

func TestTierReopenCleanAndAfterCrash(t *testing.T) {
	dir := t.TempDir()
	st := openTiered(t, dir, tinyTier())
	for i := 1; i <= 30; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = openTiered(t, dir, tinyTier())
	if st.Len() != 30 {
		t.Fatalf("after clean reopen Len = %d", st.Len())
	}
	for i := 1; i <= 35; i++ {
		if i <= 30 {
			if sn := st.Get(event.SnippetID(i)); sn == nil || sn.Document != fmt.Sprintf("doc-%d", i) {
				t.Fatalf("Get(%d) after reopen = %+v", i, sn)
			}
			continue
		}
		if err := st.Append(tsnip(event.SnippetID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: drop the store without Close — manifest is stale (written
	// at the last seal), the open chunk has unsealed rows.
	st.tier.openFile.Sync()
	st.tier.openFile.Close()

	st = openTiered(t, dir, tinyTier())
	defer st.Close()
	if st.Len() != 35 {
		t.Fatalf("after crash reopen Len = %d, want 35", st.Len())
	}
	for i := 1; i <= 35; i++ {
		if sn := st.Get(event.SnippetID(i)); sn == nil {
			t.Fatalf("Get(%d) = nil after crash reopen", i)
		}
	}
}

func TestTierTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st := openTiered(t, dir, tinyTier())
	for i := 1; i <= 10; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	openIdx := st.tier.open.index
	st.Close()
	// Tear the open chunk: a partial frame after the last good record.
	path := chunkRawPath(filepath.Join(dir, "chunks"), openIdx)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x31, 0x56, 0x50, 0x53, 0x01, 0xff}) // magic + version + torn length
	f.Close()

	st = openTiered(t, dir, tinyTier())
	defer st.Close()
	if st.Len() != 10 {
		t.Fatalf("Len after torn tail = %d, want 10", st.Len())
	}
	if st.RecoveredDrop() == 0 {
		t.Fatal("torn-tail bytes not reported")
	}
	found := false
	for _, w := range st.RecoveryWarnings() {
		if strings.Contains(w, "torn-tail") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no torn-tail warning in %q", st.RecoveryWarnings())
	}
	// The store must still accept appends into the repaired chunk.
	if err := st.Append(tsnip(11, 11)); err != nil {
		t.Fatal(err)
	}
}

// TestTierKillDuringDemotion simulates a crash in the demotion window
// where the compressed copy has been published but the raw file not yet
// unlinked: both copies exist. Open must keep the intact raw copy and
// delete the compressed one.
func TestTierKillDuringDemotion(t *testing.T) {
	dir := t.TempDir()
	st := openTiered(t, dir, tinyTier())
	for i := 1; i <= 30; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	// Find a compressed cold chunk and resurrect its raw twin, as if the
	// crash hit between rename and unlink.
	var cold *chunk
	for _, c := range st.tier.chunks {
		if c.cold && c.compressed {
			cold = c
			break
		}
	}
	if cold == nil {
		t.Fatal("no compressed cold chunk to test with")
	}
	st.Close()
	cdir := filepath.Join(dir, "chunks")
	raw, err := inflateFile(chunkColdPath(cdir, cold.index))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(chunkRawPath(cdir, cold.index), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// A leftover temp file from the same crash must be swept too.
	os.WriteFile(filepath.Join(cdir, "chunk-99999999.spz.tmp"), []byte("junk"), 0o644)

	st = openTiered(t, dir, tinyTier())
	defer st.Close()
	// Open keeps the intact raw copy (the tier rebalance may re-compress
	// it afterwards); the crash invariant is that exactly one copy
	// survives, never both.
	_, rawErr := os.Stat(chunkRawPath(cdir, cold.index))
	_, coldErr := os.Stat(chunkColdPath(cdir, cold.index))
	if rawErr == nil && coldErr == nil {
		t.Fatal("both raw and compressed copies survived recovery")
	}
	if rawErr != nil && coldErr != nil {
		t.Fatal("chunk lost entirely during recovery")
	}
	if _, err := os.Stat(filepath.Join(cdir, "chunk-99999999.spz.tmp")); !os.IsNotExist(err) {
		t.Fatal("stale temp file not swept at open")
	}
	if st.Len() != 30 {
		t.Fatalf("Len = %d after demotion-crash recovery", st.Len())
	}
	for i := 1; i <= 30; i++ {
		if sn := st.Get(event.SnippetID(i)); sn == nil || sn.Text == "" {
			t.Fatalf("Get(%d) lost payload after demotion-crash recovery", i)
		}
	}
}

// TestTierKillDuringPromotion simulates the mirror crash during
// promotion: the raw file was rematerialised but is torn (partial
// write survived only via the directory, e.g. a truncated page), while
// the compressed copy is still present. Open must fall back to the
// compressed copy and drop the damaged raw file.
func TestTierKillDuringPromotion(t *testing.T) {
	dir := t.TempDir()
	st := openTiered(t, dir, tinyTier())
	for i := 1; i <= 30; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	var cold *chunk
	for _, c := range st.tier.chunks {
		if c.cold && c.compressed {
			cold = c
			break
		}
	}
	if cold == nil {
		t.Fatal("no compressed cold chunk to test with")
	}
	st.Close()
	cdir := filepath.Join(dir, "chunks")
	raw, err := inflateFile(chunkColdPath(cdir, cold.index))
	if err != nil {
		t.Fatal(err)
	}
	// Torn rematerialisation: only half the raw bytes made it.
	if err := os.WriteFile(chunkRawPath(cdir, cold.index), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	st = openTiered(t, dir, tinyTier())
	defer st.Close()
	if _, err := os.Stat(chunkRawPath(cdir, cold.index)); !os.IsNotExist(err) {
		t.Fatal("torn raw copy not removed in favour of compressed copy")
	}
	if st.Len() != 30 {
		t.Fatalf("Len = %d after promotion-crash recovery", st.Len())
	}
	for i := 1; i <= 30; i++ {
		if sn := st.Get(event.SnippetID(i)); sn == nil || sn.Text == "" {
			t.Fatalf("Get(%d) lost payload after promotion-crash recovery", i)
		}
	}
}

func TestTierPromotionAfterRepeatedFaults(t *testing.T) {
	opts := tinyTier()
	opts.PromoteAfter = 2
	st := openTiered(t, t.TempDir(), opts)
	defer st.Close()
	for i := 1; i <= 40; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	before := st.TierStats()
	if before.Cold == 0 {
		t.Fatalf("no cold chunks: %+v", before)
	}
	// Hammer the oldest rows; the LRU holds one chunk, so alternating
	// between two cold chunks faults every time until promotion.
	for pass := 0; pass < 4; pass++ {
		for _, id := range []event.SnippetID{1, 9} {
			if sn := st.Get(id); sn == nil {
				t.Fatalf("Get(%d) = nil", id)
			}
		}
	}
	after := st.TierStats()
	if after.Faults == 0 {
		t.Fatalf("cold reads recorded no faults: %+v", after)
	}
	if after.Promotions == 0 {
		t.Fatalf("repeated faults did not promote: %+v", after)
	}
}

// TestTierSparseIDs stores out-of-order IDs, so every chunk is sparse
// and the chunks' ID ranges overlap: at least five sealed chunks plus the
// open one, across all three tiers. Has/Get must answer for every stored
// ID and miss every absent one — inside a chunk's range and between
// ranges — live, after a reopen from the manifest, and after a reopen
// that has to rescan the chunks.
func TestTierSparseIDs(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	const n = 30 // 7 sealed chunks of 4 rows and an open one of 2
	var ids []event.SnippetID
	stored := map[event.SnippetID]bool{}
	for _, i := range rng.Perm(n) {
		id := event.SnippetID(10 * (i + 1)) // 9 absent IDs between neighbours
		ids = append(ids, id)
		stored[id] = true
	}
	st := openTiered(t, dir, tinyTier())
	for i, id := range ids {
		if err := st.Append(tsnip(id, 1+i%28)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		sealed := 0
		for _, c := range st.tier.chunks {
			if c.sealed {
				sealed++
				if c.dense {
					t.Fatalf("%s: chunk %d of shuffled IDs is dense", when, c.index)
				}
			}
		}
		if sealed < 5 || st.tier.open.rows == 0 || st.tier.ordered {
			t.Fatalf("%s: %d sealed chunks (ordered %v), open rows %d; want >= 5 overlapping and a non-empty open chunk",
				when, sealed, st.tier.ordered, st.tier.open.rows)
		}
		for id := event.SnippetID(0); id <= 10*n+20; id++ {
			sn := st.Get(id)
			if has := st.tier.Has(id); stored[id] != (sn != nil) || stored[id] != has {
				t.Fatalf("%s: stored %v, Get(%d) = %+v, Has = %v", when, stored[id], id, sn, has)
			}
			if sn != nil && (sn.ID != id || sn.Document != fmt.Sprintf("doc-%d", id)) {
				t.Fatalf("%s: Get(%d) = %+v", when, id, sn)
			}
		}
		if err := st.Append(tsnip(ids[0], 3)); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("%s: sparse duplicate: err = %v", when, err)
		}
	}
	check("live")
	st.Close()
	st = openTiered(t, dir, tinyTier())
	check("reopened from the manifest")
	st.Close()
	if err := os.Remove(filepath.Join(dir, "chunks", manifestName)); err != nil {
		t.Fatal(err)
	}
	st = openTiered(t, dir, tinyTier())
	defer st.Close()
	check("reopened by rescan")
}

// TestOpenMigratesFlatSegments opens a directory the flat segment-log
// store wrote — rotated segments, an undecodable frame, a torn tail —
// and checks the one-shot migration into chunks: every surviving record
// reads back as the flat store served it, text included; the recovery
// findings name the torn bytes and the skipped record; the segments are
// gone. Two crash points of the migration converge to the same rows
// with no duplicates: a kill after the chunks synced but before the
// segments were unlinked, and a kill mid-append.
func TestOpenMigratesFlatSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var want []*event.Snippet
	var payloads [][]byte
	for i, p := range rng.Perm(40) {
		sn := tsnip(event.SnippetID(1000+p), 1+p%28)
		want = append(want, sn)
		payloads = append(payloads, event.AppendEncode(nil, sn))
		if i == 17 {
			payloads = append(payloads, []byte("not a snippet payload"))
		}
	}
	base := t.TempDir()
	fixture := filepath.Join(base, "flat")
	writeFlatLog(t, fixture, 1024, payloads)
	segs, err := listSegments(fixture)
	if err != nil || len(segs) < 3 {
		t.Fatalf("fixture holds segments %v (%v), want at least 3", segs, err)
	}
	// A crash mid-append tore the newest segment's tail.
	torn := appendRecord(nil, event.Encode(tsnip(999, 1)))[:20]
	f, err := os.OpenFile(segmentPath(fixture, segs[len(segs)-1]), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn)
	f.Close()
	copySegments := func(dst string, segments []int) {
		t.Helper()
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, idx := range segments {
			data, err := os.ReadFile(segmentPath(fixture, idx))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(segmentPath(dst, idx), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	sorted := append([]*event.Snippet(nil), want...)
	slices.SortFunc(sorted, event.CompareByTimestamp)
	open := func(dir string) *Store {
		t.Helper()
		st, err := Open(dir, Options{Tier: &TierOptions{ChunkRows: 8}})
		if err != nil {
			t.Fatalf("open %s: %v", dir, err)
		}
		return st
	}
	verify := func(name, dir string) *Store {
		t.Helper()
		st := open(dir)
		if left, _ := listSegments(dir); len(left) != 0 {
			t.Fatalf("%s: segments %v survived the migration", name, left)
		}
		if all := st.All(); !reflect.DeepEqual(all, sorted) {
			t.Fatalf("%s: All() holds %d snippets, want the %d the flat store served", name, len(all), len(sorted))
		}
		for _, sn := range want {
			if got := st.Get(sn.ID); !reflect.DeepEqual(got, sn) {
				t.Fatalf("%s: Get(%d) = %+v, want %+v", name, sn.ID, got, sn)
			}
			if text, doc, ok := st.SnippetText(sn.ID); !ok || text != sn.Text || doc != sn.Document {
				t.Fatalf("%s: SnippetText(%d) = %q, %q, %v", name, sn.ID, text, doc, ok)
			}
		}
		if st.Len() != len(want) || st.Get(999) != nil {
			t.Fatalf("%s: Len = %d, want %d and no torn record", name, st.Len(), len(want))
		}
		return st
	}

	clean := filepath.Join(base, "clean")
	copySegments(clean, segs)
	st := verify("first open", clean)
	if st.RecoveredDrop() != int64(len(torn)) {
		t.Fatalf("RecoveredDrop = %d, want the %d torn bytes", st.RecoveredDrop(), len(torn))
	}
	joined := strings.Join(st.RecoveryWarnings(), "\n")
	if !strings.Contains(joined, "torn-tail") || !strings.Contains(joined, "undecodable") {
		t.Fatalf("warnings = %q, want a torn-tail and an undecodable finding", st.RecoveryWarnings())
	}
	st.Close()
	st = verify("second open", clean)
	if w := st.RecoveryWarnings(); len(w) != 0 {
		t.Fatalf("second open reported %q", w)
	}
	st.Close()

	// Kill after the chunks synced, before the unlink: every row is in a
	// chunk and every segment is still there.
	unlinked := filepath.Join(base, "before-unlink")
	copySegments(unlinked, segs)
	open(unlinked).Close()
	copySegments(unlinked, segs)
	verify("after a kill before the unlink", unlinked).Close()

	// Kill mid-append: the chunks hold the rows of the first segments and
	// a torn frame of the next, and no segment is gone yet.
	midway := filepath.Join(base, "mid-append")
	copySegments(midway, segs[:2])
	open(midway).Close()
	f, err = os.OpenFile(newestChunk(t, midway), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(appendRecord(nil, payloads[len(payloads)-1])[:30])
	f.Close()
	copySegments(midway, segs)
	verify("after a kill mid-append", midway).Close()
}

func TestTierManifestReconcile(t *testing.T) {
	dir := t.TempDir()
	st := openTiered(t, dir, tinyTier())
	for i := 1; i <= 20; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	manifest, err := st.TierManifestJSON()
	if err != nil || len(manifest) == 0 {
		t.Fatalf("TierManifestJSON: %v", err)
	}
	if w := st.TierReconcile(manifest); len(w) != 0 {
		t.Fatalf("self-reconcile produced findings: %q", w)
	}
	st.Close()
	// Remove a sealed chunk behind the checkpoint's back; reconcile must
	// surface it as a divergence finding.
	os.Remove(chunkColdPath(filepath.Join(dir, "chunks"), 0))
	os.Remove(chunkRawPath(filepath.Join(dir, "chunks"), 0))
	st = openTiered(t, dir, tinyTier())
	defer st.Close()
	w := st.TierReconcile(manifest)
	if len(w) == 0 {
		t.Fatal("reconcile missed a vanished chunk")
	}
	if !strings.Contains(strings.Join(w, " "), "chunk 0") {
		t.Fatalf("findings do not name the chunk: %q", w)
	}
}

// TestTierLostChunkReported: a sealed chunk whose files are both gone is
// named in the recovery warnings with the rows the manifest says it held,
// whether sealed chunks stay mapped or go cold.
func TestTierLostChunkReported(t *testing.T) {
	for _, opts := range []*TierOptions{{ChunkRows: 4}, tinyTier()} {
		dir := t.TempDir()
		st := openTiered(t, dir, opts)
		for i := 1; i <= 20; i++ {
			if err := st.Append(tsnip(event.SnippetID(i), i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		os.Remove(chunkColdPath(filepath.Join(dir, "chunks"), 1))
		os.Remove(chunkRawPath(filepath.Join(dir, "chunks"), 1))
		st = openTiered(t, dir, opts)
		if st.Len() != 16 {
			t.Errorf("compress %v: reopen holds %d rows, want 16", opts.Compress, st.Len())
		}
		w := strings.Join(st.RecoveryWarnings(), "; ")
		if !strings.Contains(w, "chunk 1: manifest entry has no chunk file; 4 rows lost") {
			t.Errorf("compress %v: the lost chunk is not reported: %q", opts.Compress, w)
		}
		st.Close()
	}
}

// TestTierConcurrentHammer mixes ingest, point reads (forcing cold
// faults and promotions), text hydration, and full scans; run under
// -race this is the tier manager's concurrency gate.
func TestTierConcurrentHammer(t *testing.T) {
	opts := tinyTier()
	opts.PromoteAfter = 3
	st := openTiered(t, t.TempDir(), opts)
	defer st.Close()
	for i := 1; i <= 40; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), 1+i%20)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer: keeps sealing chunks, driving demotions
		defer wg.Done()
		for i := 41; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Append(tsnip(event.SnippetID(i), 1+i%20)); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) { // readers: cold faults, hydration, scans
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := event.SnippetID(1 + (i*7+g*13)%40)
				if sn := st.Get(id); sn == nil {
					t.Errorf("Get(%d) = nil", id)
					return
				}
				if _, _, ok := st.SnippetText(id); !ok {
					t.Errorf("SnippetText(%d) missing", id)
					return
				}
				if i%50 == 0 {
					st.All()
					st.Len()
					st.TierStats()
				}
			}
		}(g)
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// mappedFile returns the file /proc/self/maps names for the mapping that
// holds b's first byte, or "" when that memory is not file-backed (the Go
// heap, say).
func mappedFile(t *testing.T, b []byte) string {
	t.Helper()
	if len(b) == 0 {
		return ""
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	addr := uint64(uintptr(unsafe.Pointer(unsafe.SliceData(b))))
	for _, line := range strings.Split(string(maps), "\n") {
		f := strings.Fields(line) // start-end perms offset dev inode [path]
		var start, end uint64
		if len(f) < 5 {
			continue
		}
		fmt.Sscanf(f[0], "%x-%x", &start, &end)
		if addr >= start && addr < end {
			return strings.Join(f[5:], " ")
		}
	}
	return ""
}

// TestTierSealedChunksLiveInTheirFiles: a store without budgets serves
// every sealed chunk from a read-only mapping of the chunk's own file,
// live and after a reopen; no sealed chunk keeps a heap copy of its bytes.
func TestTierSealedChunksLiveInTheirFiles(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("mmapFile falls back to a heap read off Linux")
	}
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3*4096 + 10 // three seals at the default 4096 rows per chunk
	for i := 1; i <= n; i++ {
		if err := st.Append(tsnip(event.SnippetID(i), 1+i%28)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		sealed := 0
		for _, c := range st.tier.chunks {
			if !c.sealed {
				continue
			}
			sealed++
			want, err := filepath.EvalSymlinks(chunkRawPath(st.tier.dir, c.index))
			if err != nil {
				t.Fatal(err)
			}
			if got := mappedFile(t, c.data); got != want {
				t.Fatalf("%s: sealed chunk %d reads from %q, want a mapping of %s", when, c.index, got, want)
			}
		}
		if sealed < 3 {
			t.Fatalf("%s: %d sealed chunks, want 3", when, sealed)
		}
		if sn := st.Get(1); sn == nil || sn.Document != "doc-1" {
			t.Fatalf("%s: Get(1) = %+v", when, sn)
		}
	}
	check("live")
	st.Close()
	if st, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check("reopened")
}

// TestTierReopenAllocatesNoChunkBytes: reopening a budgeted store whose
// cold chunks stay raw (Compress off) checks every chunk's frames through
// a mapping, so Open allocates metadata and frame offsets, not chunk
// bytes: under a tenth of the corpus, measured as the TotalAlloc delta.
func TestTierReopenAllocatesNoChunkBytes(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("mmapFile falls back to a heap read off Linux")
	}
	dir := t.TempDir()
	opts := &TierOptions{ChunkRows: 128, WarmChunks: 2}
	st := openTiered(t, dir, opts)
	const n = 24*128 + 5 // 24 sealed chunks and an open one
	for i := 1; i <= n; i++ {
		sn := tsnip(event.SnippetID(i), 1+i%28)
		sn.Text = strings.Repeat(sn.Text+" ", 20) // ~1 KB a snippet
		if err := st.Append(sn); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	logs, _ := filepath.Glob(filepath.Join(dir, "chunks", "*"+chunkRawSuffix))
	var raw uint64
	for _, p := range logs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		raw += uint64(fi.Size())
	}
	if len(logs) < 21 {
		t.Fatalf("%d raw chunk files, want 24 sealed and the open one", len(logs))
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st = openTiered(t, dir, opts)
	runtime.ReadMemStats(&after)
	defer st.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc*10 >= raw {
		t.Fatalf("Open allocated %d bytes for a %d-byte corpus, want under a tenth", alloc, raw)
	} else {
		t.Logf("Open allocated %d bytes for a %d-byte corpus", alloc, raw)
	}
	if st.Len() != n {
		t.Fatalf("Len = %d after reopen, want %d", st.Len(), n)
	}
	for _, id := range []event.SnippetID{1, n / 2, n} {
		if sn := st.Get(id); sn == nil || sn.Document != fmt.Sprintf("doc-%d", id) {
			t.Fatalf("Get(%d) = %+v after reopen", id, sn)
		}
	}
}
