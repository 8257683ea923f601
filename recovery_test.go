package storypivot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/event"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/stream"
)

// TestRecoveryWarningsCleanOpen: a pipeline over a healthy store reports
// nothing.
func TestRecoveryWarningsCleanOpen(t *testing.T) {
	dir := t.TempDir()
	p, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	p.IngestAll(datagen.Generate(experiments.CorpusScale(200, 2, 5)).Snippets)
	p.Close()

	p2, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.RecoveryWarnings(); len(got) != 0 {
		t.Fatalf("clean reopen produced warnings: %v", got)
	}
}

// TestRecoveryWarningsCorruptCheckpoint: a checkpoint that exists but
// cannot be honoured must (a) fall back to replay with identical results,
// (b) surface a warning, and (c) count the fallback in the obs registry.
func TestRecoveryWarningsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	corpus := datagen.Generate(experiments.CorpusScale(400, 3, 7))
	p, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	p.IngestAll(corpus.Snippets)
	want := len(p.Result().Integrated())
	p.Close()

	if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), []byte("{definitely not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	failsBefore := obs.GetCounter("storypivot_stream_checkpoint_restore_failures_total", "").Value()

	p2, err := New(WithStorage(dir))
	if err != nil {
		t.Fatalf("corrupt checkpoint broke New: %v", err)
	}
	defer p2.Close()
	if got := len(p2.Result().Integrated()); got != want {
		t.Fatalf("replay fallback produced %d stories, want %d", got, want)
	}
	warns := p2.RecoveryWarnings()
	if len(warns) != 1 || !strings.Contains(warns[0], "checkpoint restore failed") {
		t.Fatalf("warnings = %v, want one checkpoint-restore finding", warns)
	}
	if got := obs.GetCounter("storypivot_stream_checkpoint_restore_failures_total", "").Value() - failsBefore; got != 1 {
		t.Fatalf("restore-failure counter advanced by %d, want 1", got)
	}
}

// TestRecoveryWarningsMissingCheckpoint: never having written a
// checkpoint is the normal first-open state, not a failure — replay must
// happen without a warning and without counting a restore failure.
func TestRecoveryWarningsMissingCheckpoint(t *testing.T) {
	dir := t.TempDir()
	p, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	p.IngestAll(datagen.Generate(experiments.CorpusScale(150, 2, 3)).Snippets)
	// Bypass Close (which writes a checkpoint): just close the store via
	// a fresh open over the same dir after dropping the handle.
	if err := p.store.Close(); err != nil {
		t.Fatal(err)
	}
	failsBefore := obs.GetCounter("storypivot_stream_checkpoint_restore_failures_total", "").Value()

	p2, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.RecoveryWarnings(); len(got) != 0 {
		t.Fatalf("missing checkpoint produced warnings: %v", got)
	}
	if got := obs.GetCounter("storypivot_stream_checkpoint_restore_failures_total", "").Value(); got != failsBefore {
		t.Fatal("missing checkpoint counted as a restore failure")
	}
}

// TestSourceCollisionLeavesStoreReopenable: sources src977 and src3367
// share an ID-namespace tag, so the engine refuses the second. The store
// must not keep the refused snippet: every later open replays the store,
// which would refuse it again and fail.
func TestSourceCollisionLeavesStoreReopenable(t *testing.T) {
	dir := t.TempDir()
	p, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	snippet := func(id SnippetID, src SourceID) *Snippet {
		sn := &Snippet{ID: id, Source: src, Timestamp: time.Date(2014, 7, 17, 0, 0, 0, 0, time.UTC),
			Entities: []Entity{"UKR"}, Terms: []Term{{Token: "crash", Weight: 1}}}
		sn.Normalize()
		return sn
	}
	if err := p.Ingest(snippet(1, "src977")); err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(snippet(2, "src3367")); !errors.Is(err, stream.ErrSourceCollision) {
		t.Fatalf("Ingest of the colliding source = %v, want ErrSourceCollision", err)
	}
	if p.Snippet(2) != nil {
		t.Fatal("the store holds the snippet the engine refused")
	}
	p.Close()
	for _, replay := range []bool{false, true} {
		if replay {
			os.Remove(filepath.Join(dir, "checkpoint.json"))
		}
		p2, err := New(WithStorage(dir))
		if err != nil {
			t.Fatalf("reopen (replay %v): %v", replay, err)
		}
		if got := p2.Engine().Ingested(); got != 1 {
			t.Errorf("reopen (replay %v) holds %d snippets, want 1", replay, got)
		}
		p2.Close()
	}
}

// TestRecoveryWarningsTruncatedSegment: a torn store tail surfaces the
// storage layer's finding through Pipeline.RecoveryWarnings, and the
// pipeline keeps working over the intact prefix.
func TestRecoveryWarningsTruncatedSegment(t *testing.T) {
	dir := t.TempDir()
	corpus := datagen.Generate(experiments.CorpusScale(300, 2, 11))
	p, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	p.IngestAll(corpus.Snippets)
	p.Close()

	// Tear the final record of the newest chunk mid-frame, and remove
	// the checkpoint so the reopen replays the (now shorter) store rather
	// than restoring counts that no longer match.
	os.Remove(filepath.Join(dir, "checkpoint.json"))
	chunks, err := filepath.Glob(filepath.Join(dir, "chunks", "chunk-*.log"))
	if err != nil || len(chunks) == 0 {
		t.Fatalf("no chunks: %v", err)
	}
	last := chunks[len(chunks)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-7); err != nil {
		t.Fatal(err)
	}

	p2, err := New(WithStorage(dir))
	if err != nil {
		t.Fatalf("torn tail broke New: %v", err)
	}
	defer p2.Close()
	warns := p2.RecoveryWarnings()
	if len(warns) == 0 {
		t.Fatal("torn chunk tail produced no warnings")
	}
	found := false
	for _, w := range warns {
		if strings.Contains(w, "torn-tail") {
			found = true
		}
	}
	if !found {
		t.Fatalf("warnings = %v, want a torn-tail finding", warns)
	}
	// One snippet was lost to the tear; the survivors must still be
	// queryable and ingestion must still work.
	if got, want := p2.Engine().Ingested(), uint64(len(corpus.Snippets)-1); got != want {
		t.Fatalf("Ingested = %d, want %d", got, want)
	}
	// The caller's view is a copy.
	warns[0] = "mutated"
	if got := p2.RecoveryWarnings(); got[0] == "mutated" {
		t.Fatal("RecoveryWarnings aliases internal state")
	}
}

// retireRecoveryOpts opens a retirement-enabled pipeline over dir with
// the exact-mode settings the differential uses (the archive defaults to
// <dir>/archive, so it persists across reopens).
func retireRecoveryOpts(dir string) []Option {
	return append(retireDiffOpts(),
		WithStorage(dir),
		WithRetireWindow(21*24*time.Hour),
		WithRetireGrace(time.Hour))
}

// TestRecoveryKillDuringRetire: the process dies after retirements that
// no checkpoint ever covered (the snippet log is durable, the
// checkpoint predates both the newest snippets and the newest archive
// records). The reopen must detect the stale checkpoint, fall back to
// replay with the archive reset, rebuild the SAME retirement state, and
// still honour reactivation under the original story ID.
func TestRecoveryKillDuringRetire(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)
	p, err := New(retireRecoveryOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(retireSnip(1, "alpha", t0, "kepler", "telescope")); err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(retireSnip(2, "alpha", t0.Add(time.Hour), "kepler")); err != nil {
		t.Fatal(err)
	}
	target := p.StoryOf("alpha", 1)

	// Retire the kepler story, then checkpoint: the checkpoint covers it.
	advanceWatermark(t, p, "alpha", 100, t0.Add(48*time.Hour), t0.Add(60*24*time.Hour), 48*time.Hour)
	cpArchived := p.Retire().Snapshot().Archived
	if cpArchived == 0 {
		t.Fatal("setup: nothing retired before the checkpoint")
	}
	if err := p.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}

	// Post-checkpoint work the kill will lose from the checkpoint's view:
	// more snippets, more retirements.
	advanceWatermark(t, p, "alpha", 500, t0.Add(62*24*time.Hour), t0.Add(120*24*time.Hour), 48*time.Hour)
	if got := p.Retire().Snapshot().Archived; got <= cpArchived {
		t.Fatalf("no post-checkpoint retirement (archived %d at checkpoint, %d now)", cpArchived, got)
	}
	ingested := p.Engine().Ingested()
	// Kill: flush the snippet log, skip Close (no fresh checkpoint, the
	// archive handle just drops).
	if err := p.store.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := New(retireRecoveryOpts(dir)...)
	if err != nil {
		t.Fatalf("reopen after kill-during-retire broke New: %v", err)
	}
	defer p2.Close()
	if got := p2.Engine().Ingested(); got != ingested {
		t.Fatalf("replay ingested %d snippets, want %d", got, ingested)
	}
	// Replay re-ingests without settling; the first alignment publish
	// runs the retirement walk over everything that went cold.
	p2.Result()
	view := p2.Retire().Snapshot()
	if view.Archived == 0 {
		t.Fatalf("replay rebuilt no retirement state: %+v", view)
	}
	// The kepler story is archived again, not resident.
	if got, _ := p2.StoriesByEntityN("kepler", 0, -1); len(got) != 0 {
		t.Fatalf("retired story resident after recovery: %v", storyIDs(got))
	}
	// Reactivation across the restart keeps the original identity: story
	// IDs are replay-deterministic, so the pre-kill ID must come back.
	if err := p2.Ingest(retireSnip(9000, "alpha", t0.Add(72*time.Hour), "kepler")); err != nil {
		t.Fatal(err)
	}
	if got := p2.StoryOf("alpha", 9000); got != target {
		t.Fatalf("reactivated story %d after recovery, want original %d", got, target)
	}
	if p2.Retire().Snapshot().Reactivated == 0 {
		t.Fatal("reactivation after recovery not counted")
	}
}

// TestRecoveryArchiveReconcile: an archive record the checkpoint never
// heard of (a retirement that raced the crash, or a torn group whose
// commit was lost) must be dropped on restore — the story it names was
// rebuilt resident from its snippets, and serving the stale record too
// would fork its identity.
func TestRecoveryArchiveReconcile(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)
	p, err := New(retireRecoveryOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(retireSnip(1, "alpha", t0, "kepler", "telescope")); err != nil {
		t.Fatal(err)
	}
	advanceWatermark(t, p, "alpha", 100, t0.Add(48*time.Hour), t0.Add(60*24*time.Hour), 48*time.Hour)
	wantArchived := p.Retire().Snapshot().Archived
	if wantArchived == 0 {
		t.Fatal("setup: nothing retired")
	}
	if err := p.Close(); err != nil { // clean close: checkpoint covers the archive
		t.Fatal(err)
	}

	// Simulate the lost raced retirement: append a record for a story ID
	// the checkpoint still considers resident.
	arch, _, err := storage.OpenArchive(filepath.Join(dir, "archive"))
	if err != nil {
		t.Fatal(err)
	}
	ghost := retireSnip(7777, "alpha", t0.Add(30*24*time.Hour), "ghost")
	st := event.RestoreStory(999999, "alpha", []*Snippet{ghost}, nil, nil,
		ghost.Timestamp, ghost.Timestamp, 1)
	if _, _, err := arch.AppendGroup(999999, t0.Add(60*24*time.Hour), []*event.Story{st}); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := New(retireRecoveryOpts(dir)...)
	if err != nil {
		t.Fatalf("reopen with stale archive record broke New: %v", err)
	}
	defer p2.Close()
	if len(p2.RecoveryWarnings()) != 0 {
		t.Fatalf("covered checkpoint produced warnings: %v", p2.RecoveryWarnings())
	}
	view := p2.Retire().Snapshot()
	if view.Archived != wantArchived {
		t.Fatalf("reconcile kept %d archived stories, want %d (stale record must drop)",
			view.Archived, wantArchived)
	}
	// The ghost record must not hijack matching evidence into a dead ID.
	if err := p2.Ingest(retireSnip(9001, "alpha", t0.Add(31*24*time.Hour), "ghost")); err != nil {
		t.Fatal(err)
	}
	if got := p2.StoryOf("alpha", 9001); got == 999999 {
		t.Fatal("stale archive record reactivated after reconcile")
	}
}

// downgradeArchive rewrites every record of the archive in dir with
// payload version 1, the layout whose records carried snippet copies,
// re-framing each so that only the payload version is foreign.
func downgradeArchive(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no archive segments in %s (%v)", dir, err)
	}
	crc := crc32.MakeTable(crc32.Castagnoli)
	const header = 13 // u32 magic | u8 version | u32 length | u32 crc
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off+header <= len(data); {
			n := int(binary.LittleEndian.Uint32(data[off+5:]))
			payload := data[off+header : off+header+n]
			payload[0] = 1
			binary.LittleEndian.PutUint32(data[off+9:], crc32.Checksum(payload, crc))
			off += header + n
		}
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// copyStore copies the event store in src to dst without its checkpoint
// and archive, so a pipeline over dst replays every snippet.
func copyStore(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		switch {
		case rel == "archive" || rel == "checkpoint.json":
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		case d.IsDir():
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryArchiveOlderVersion: an archive written in the older
// record layout is cut at open, the checkpoint that calls its stories
// archived then fails to restore, and New replays the store, which
// holds every snippet. Both findings reach RecoveryWarnings, and the
// pipeline answers exactly as a fresh replay of the same store does.
func TestRecoveryArchiveOlderVersion(t *testing.T) {
	dir := t.TempDir()
	corpus := datagen.Generate(experiments.CorpusScale(600, 4, 17))
	p, err := New(retireRecoveryOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	for i, sn := range corpus.Snippets {
		if err := p.Ingest(sn); err != nil {
			t.Fatal(err)
		}
		if (i+1)%50 == 0 {
			p.Result()
		}
	}
	p.Result()
	if p.Retire().Snapshot().Archived == 0 {
		t.Fatal("setup: nothing archived before the checkpoint")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	downgradeArchive(t, filepath.Join(dir, "archive"))
	fresh := t.TempDir()
	copyStore(t, dir, fresh)

	p2, err := New(retireRecoveryOpts(dir)...)
	if err != nil {
		t.Fatalf("reopen over an older archive broke New: %v", err)
	}
	defer p2.Close()
	warns := strings.Join(p2.RecoveryWarnings(), "\n")
	if !strings.Contains(warns, "archive segment") || !strings.Contains(warns, "checkpoint restore failed") {
		t.Fatalf("warnings = %q, want the archive cut and the checkpoint fallback", warns)
	}
	p3, err := New(retireRecoveryOpts(fresh)...)
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if w := p3.RecoveryWarnings(); len(w) != 0 {
		t.Fatalf("fresh replay warned: %v", w)
	}
	p2.Result()
	p3.Result()
	if got, want := p2.Retire().Snapshot().Archived, p3.Retire().Snapshot().Archived; got != want || want == 0 {
		t.Fatalf("%d stories archived after the cut, %d after a fresh replay", got, want)
	}
	for _, e := range panelEntities(corpus, 8) {
		got, _ := p2.StoriesByEntityN(e, 0, -1)
		want, _ := p3.StoriesByEntityN(e, 0, -1)
		if g, w := storyKeys(got), storyKeys(want); !slices.Equal(g, w) {
			t.Fatalf("StoriesByEntity(%s) = %v, fresh replay %v", e, g, w)
		}
		gotTL, _ := p2.TimelineN(e, 0, -1)
		wantTL, _ := p3.TimelineN(e, 0, -1)
		if g, w := snippetIDs(gotTL), snippetIDs(wantTL); !slices.Equal(g, w) {
			t.Fatalf("Timeline(%s) = %v, fresh replay %v", e, g, w)
		}
	}
	for _, q := range panelQueries(corpus, 6) {
		got, _ := p2.SearchN(q, 0, -1)
		want, _ := p3.SearchN(q, 0, -1)
		if g, w := storyKeys(got), storyKeys(want); !slices.Equal(g, w) {
			t.Fatalf("Search(%q) = %v, fresh replay %v", q, g, w)
		}
	}
}

func storyKeys(in []*IntegratedStory) []string {
	out := make([]string, len(in))
	for i, is := range in {
		out[i] = storyKey(is)
	}
	return out
}

// TestNewClosesWhatItOpenedOnError: every error return of New closes
// what it opened before it — here the store, when the archive under it
// cannot open, and nothing when the store itself cannot.
func TestNewClosesWhatItOpenedOnError(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts the descriptors in /proc/self/fd")
	}
	archiveFile := t.TempDir()
	if err := os.WriteFile(filepath.Join(archiveFile, "archive"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	storeFile := filepath.Join(t.TempDir(), "store")
	if err := os.WriteFile(storeFile, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	attempt := func() {
		for _, dir := range []string{archiveFile, storeFile} {
			if _, err := New(WithStorage(dir), WithRetireWindow(21*24*time.Hour)); err == nil {
				t.Fatalf("New over %s succeeded", dir)
			}
		}
	}
	attempt() // the first failure may open the runtime's own descriptors
	before := fds()
	for i := 0; i < 5; i++ {
		attempt()
	}
	if after := fds(); after != before {
		t.Fatalf("5 failed opens left %d descriptors open", after-before)
	}
}
