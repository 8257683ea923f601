package storypivot

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/feed"
)

// throttledPipe slows each ingest so the feed is reliably mid-burst
// when the test stops the manager. Embedding *Pipeline promotes
// WriteCheckpoint, so the manager still checkpoints the sink.
type throttledPipe struct {
	*Pipeline
	delay time.Duration
}

func (tp throttledPipe) Ingest(sn *Snippet) error {
	time.Sleep(tp.delay)
	return tp.Pipeline.Ingest(sn)
}

// TestFeedCheckpointRestoreUnderIngest is the crash-consistency test
// for the feed subsystem against a real storage-backed pipeline:
// runners are mid-burst while the periodic checkpointer concurrently
// writes pipeline checkpoints and feed cursors; the manager is then
// stopped mid-stream, the process "restarts" (new pipeline restored
// from disk, new manager from the cursor file), and the stream is
// finished. At-least-once redelivery of the unacknowledged tail must
// be collapsed by store/engine dedup — the restored pipeline ends with
// exactly one copy of every snippet, and the query index still matches
// the full-scan oracle.
func TestFeedCheckpointRestoreUnderIngest(t *testing.T) {
	dir := t.TempDir()
	cursorPath := filepath.Join(dir, "feed-cursors.json")
	corpus := datagen.Generate(experiments.CorpusScale(1500, 4, 31))
	total := len(corpus.Snippets)

	cfg := feed.Config{
		BackoffBase:     time.Millisecond,
		BackoffCap:      4 * time.Millisecond,
		FetchTimeout:    2 * time.Second,
		BatchSize:       16,
		PollInterval:    3 * time.Millisecond,
		CursorPath:      cursorPath,
		CheckpointEvery: 10 * time.Millisecond, // fires repeatedly mid-burst
	}
	addReplays := func(m *feed.Manager) {
		t.Helper()
		for src, sns := range corpus.BySource() {
			if err := m.Add(feed.NewReplay(src, sns, 0)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Phase 1: ingest part of the corpus, checkpointing concurrently,
	// then stop mid-stream.
	p1, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	m1, err := feed.NewManager(throttledPipe{p1, 200 * time.Microsecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addReplays(m1)
	if err := m1.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && p1.Engine().Ingested() < 300 {
		time.Sleep(time.Millisecond)
	}
	if got := p1.Engine().Ingested(); got < 300 {
		t.Fatalf("phase 1 stalled at %d ingested", got)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	phase1 := p1.Engine().Ingested()
	if phase1 >= uint64(total) {
		t.Fatalf("phase 1 finished the whole corpus (%d); cannot exercise restart", phase1)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash consistency: atomic publication never leaves temp files, for
	// either the pipeline checkpoint or the cursor file.
	for _, tmp := range []string{filepath.Join(dir, "checkpoint.json.tmp"), cursorPath + ".tmp"} {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatalf("temp file %s survived (err=%v)", tmp, err)
		}
	}
	if _, err := os.Stat(cursorPath); err != nil {
		t.Fatalf("cursor file not published: %v", err)
	}

	// Phase 2: restart from disk and finish the stream.
	p2, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.Engine().Ingested(); got != phase1 {
		t.Fatalf("restored pipeline has %d snippets, phase 1 acknowledged %d", got, phase1)
	}
	m2, err := feed.NewManager(p2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addReplays(m2)
	if err := m2.Start(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if m2.CaughtUp() && p2.Engine().Ingested() == uint64(total) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	// Zero duplicate stories: every corpus snippet counted exactly once
	// despite the redelivered tail (store dedup turned those into acks).
	if got := p2.Engine().Ingested(); got != uint64(total) {
		t.Fatalf("after restart: ingested %d, want %d", got, total)
	}
	var redelivered uint64
	for _, st := range m2.Status() {
		redelivered += st.Duplicates
		if st.IngestErrors != 0 {
			t.Fatalf("source %s had %d ingest errors", st.Source, st.IngestErrors)
		}
	}
	if int(phase1)+int(redeliveredPlusFresh(m2))-int(redelivered) != total {
		t.Fatalf("accounting: phase1 %d + phase2 accepted %d != total %d (dups %d)",
			phase1, redeliveredPlusFresh(m2)-redelivered, total, redelivered)
	}

	// The restored-and-extended pipeline still answers queries
	// identically to the full-scan oracle.
	entities := panelEntities(corpus, 8)
	queries := panelQueries(corpus, 6)
	comparePanel(t, p2, entities, queries, "after feed restart")
}

// redeliveredPlusFresh sums phase-2 sink deliveries (accepted +
// duplicate-acknowledged) across sources.
func redeliveredPlusFresh(m *feed.Manager) uint64 {
	var n uint64
	for _, st := range m.Status() {
		n += st.Snippets + st.Duplicates
	}
	return n
}
