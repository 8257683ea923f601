package storypivot

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/experiments"
)

// tierRecoveryOpts opens a tiered pipeline with chunks small enough
// that a few hundred snippets span both tiers: 8 rows per chunk, 4
// sealed chunks mapped, everything older cold and gzip-compressed.
func tierRecoveryOpts(dir string) []Option {
	return []Option{
		WithStorage(dir),
		WithTieredStorage(4, true),
		WithTierChunkRows(8),
		WithTierColdCache(1, 2),
	}
}

// tierCorpus is a text-bearing synthetic corpus: datagen drives the
// matching signal, the synthetic display text is what the tiers store.
func tierCorpus(size, sources int, seed int64) *datagen.Corpus {
	c := datagen.Generate(experiments.CorpusScale(size, sources, seed))
	for _, sn := range c.Snippets {
		sn.Text = fmt.Sprintf("display text of snippet %d from %s", sn.ID, sn.Source)
		sn.Document = fmt.Sprintf("http://%s/doc%d.html", sn.Source, sn.ID)
	}
	return c
}

// firstColdChunk returns the path of one compressed cold chunk.
func firstColdChunk(t *testing.T, dir string) string {
	t.Helper()
	spz, err := filepath.Glob(filepath.Join(dir, "chunks", "chunk-*.spz"))
	if err != nil || len(spz) == 0 {
		t.Fatalf("no compressed cold chunks to tamper with (%v)", err)
	}
	return spz[0]
}

// inflateSpz gunzips a cold chunk file back to its raw bytes.
func inflateSpz(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// verifyTierPipeline checks the reopened pipeline serves the full
// corpus: every snippet's display text hydrates byte-identically and
// the alignment result is rebuilt.
func verifyTierPipeline(t *testing.T, p *Pipeline, corpus *datagen.Corpus) {
	t.Helper()
	if got, want := p.Engine().Ingested(), uint64(len(corpus.Snippets)); got != want {
		t.Fatalf("Ingested = %d after recovery, want %d", got, want)
	}
	for _, sn := range corpus.Snippets {
		text, doc, ok := p.SnippetText(sn.ID)
		if !ok {
			t.Fatalf("SnippetText(%d) not found after recovery", sn.ID)
		}
		if text != sn.Text || doc != sn.Document {
			t.Fatalf("SnippetText(%d) = (%q, %q), want (%q, %q)", sn.ID, text, doc, sn.Text, sn.Document)
		}
	}
	if len(p.Result().Integrated()) == 0 {
		t.Fatal("no integrated stories after recovery")
	}
}

// TestRecoveryTieredKillDuringDemotion: the process dies in the
// demotion window after the compressed copy of a chunk was published
// but before the raw file was unlinked — both copies are on disk, and
// the checkpoint's chunk manifest (v3) predates the surviving layout.
// The reopen must keep exactly one copy, reconcile the manifest without
// failing restore, and serve every snippet's text byte-identically.
func TestRecoveryTieredKillDuringDemotion(t *testing.T) {
	dir := t.TempDir()
	corpus := tierCorpus(200, 3, 17)
	p, err := New(tierRecoveryOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	p.IngestAll(corpus.Snippets)
	p.Result()
	if st, ok := p.TierStats(); !ok || st.Cold == 0 {
		t.Fatalf("setup grew no cold chunks: %+v", st)
	}
	if err := p.Close(); err != nil { // clean close: checkpoint v3 manifest
		t.Fatal(err)
	}

	// Resurrect the raw twin of a compressed chunk, as if the crash hit
	// between rename(.spz) and unlink(.log), plus a torn temp file from
	// the same window.
	spz := firstColdChunk(t, dir)
	raw := inflateSpz(t, spz)
	rawPath := strings.TrimSuffix(spz, ".spz") + ".log"
	if err := os.WriteFile(rawPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "chunks", "chunk-99999999.spz.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	p2, err := New(tierRecoveryOpts(dir)...)
	if err != nil {
		t.Fatalf("reopen after kill-during-demotion broke New: %v", err)
	}
	defer p2.Close()
	_, rawErr := os.Stat(rawPath)
	_, spzErr := os.Stat(spz)
	if rawErr == nil && spzErr == nil {
		t.Fatal("both raw and compressed copies survived recovery")
	}
	if rawErr != nil && spzErr != nil {
		t.Fatal("chunk lost entirely during recovery")
	}
	if _, err := os.Stat(filepath.Join(dir, "chunks", "chunk-99999999.spz.tmp")); !os.IsNotExist(err) {
		t.Fatal("stale temp file not swept at open")
	}
	verifyTierPipeline(t, p2, corpus)
}

// TestRecoveryTieredKillDuringPromotion: the mirror crash during
// promotion — the raw file was being rematerialised from the
// compressed copy and is torn, while the compressed copy is intact,
// and the kill also lost the checkpoint (no clean Close). The reopen
// must replay from the chunks alone, drop the torn raw file in favour
// of the compressed copy, and lose nothing.
func TestRecoveryTieredKillDuringPromotion(t *testing.T) {
	dir := t.TempDir()
	corpus := tierCorpus(200, 3, 29)
	p, err := New(tierRecoveryOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	p.IngestAll(corpus.Snippets)
	p.Result()
	if st, ok := p.TierStats(); !ok || st.Cold == 0 {
		t.Fatalf("setup grew no cold chunks: %+v", st)
	}
	// Kill: flush and drop the store handle without Close, so no fresh
	// checkpoint exists and the reopen takes the replay path.
	if err := p.store.Close(); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, "checkpoint.json"))

	spz := firstColdChunk(t, dir)
	raw := inflateSpz(t, spz)
	rawPath := strings.TrimSuffix(spz, ".spz") + ".log"
	if err := os.WriteFile(rawPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	p2, err := New(tierRecoveryOpts(dir)...)
	if err != nil {
		t.Fatalf("reopen after kill-during-promotion broke New: %v", err)
	}
	defer p2.Close()
	if _, err := os.Stat(rawPath); !os.IsNotExist(err) {
		t.Fatal("torn raw copy not removed in favour of compressed copy")
	}
	verifyTierPipeline(t, p2, corpus)
}

// TestTieredIngestQueryRace hammers the tiered pipeline under -race:
// per-source ingest goroutines push text-bearing snippets (forcing
// demotions as chunks seal) while a reader settles alignment, queries,
// and hydrates snippet text (forcing cold faults and promotions).
func TestTieredIngestQueryRace(t *testing.T) {
	corpus := tierCorpus(400, 4, 41)
	p, err := New(append(tierRecoveryOpts(t.TempDir()), WithAutoAlign(25))...)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	bySource := map[SourceID][]*Snippet{}
	for _, sn := range corpus.Snippets {
		bySource[sn.Source] = append(bySource[sn.Source], sn)
	}
	var ingest sync.WaitGroup
	for _, sns := range bySource {
		ingest.Add(1)
		go func(sns []*Snippet) {
			defer ingest.Done()
			for _, sn := range sns {
				if err := p.Ingest(sn); err != nil {
					t.Error(err)
					return
				}
			}
		}(sns)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-done:
				return
			default:
			}
			p.Result()
			p.SearchN("about", 0, 10)
			// Walk the ID space so reads fault cold chunks while the
			// writers are still demoting.
			id := corpus.Snippets[int(i)%len(corpus.Snippets)].ID
			if text, _, ok := p.SnippetText(id); ok && text == "" {
				t.Errorf("SnippetText(%d) hydrated empty text", id)
				return
			}
		}
	}()
	ingest.Wait()
	close(done)
	readers.Wait()
	verifyTierPipeline(t, p, corpus)
	if st, ok := p.TierStats(); !ok || st.Cold == 0 {
		t.Fatalf("race run grew no cold chunks: %+v", st)
	} else {
		t.Logf("tiers after race: %+v", st)
	}
}

// TestRecoveryTieredManifestDrift: a checkpoint whose chunk manifest
// no longer matches the disk (a chunk vanished after the checkpoint
// was written) must not fail the restore — the chunks are the source
// of truth — but the divergence must surface as a recovery warning.
func TestRecoveryTieredManifestDrift(t *testing.T) {
	dir := t.TempDir()
	corpus := tierCorpus(120, 2, 53)
	p, err := New(tierRecoveryOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	p.IngestAll(corpus.Snippets)
	p.Result()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Lose a sealed chunk the checkpoint still records.
	spz := firstColdChunk(t, dir)
	if err := os.Remove(spz); err != nil {
		t.Fatal(err)
	}

	p2, err := New(tierRecoveryOpts(dir)...)
	if err != nil {
		t.Fatalf("manifest drift broke New: %v", err)
	}
	defer p2.Close()
	found := false
	for _, w := range p2.RecoveryWarnings() {
		if strings.Contains(w, "tier reconcile") {
			found = true
		}
	}
	if !found {
		t.Fatalf("warnings = %v, want a tier-reconcile finding", p2.RecoveryWarnings())
	}
}

// TestReplayStripsTextLikeIngest: a reopen gives the engine what live
// Ingest gave it, by checkpoint restore and by replay alike — snippets
// with their display text under WithStorage alone, and under
// WithTieredStorage snippets stripped of text and document but keeping
// the entities, terms and timestamps identification reads.
func TestReplayStripsTextLikeIngest(t *testing.T) {
	corpus := tierCorpus(120, 2, 5)
	byID := map[SnippetID]*Snippet{}
	for _, sn := range corpus.Snippets {
		byID[sn.ID] = sn
	}
	for _, tc := range []struct {
		name  string
		opts  func(dir string) []Option
		strip bool
	}{
		{"all-hot", func(dir string) []Option { return []Option{WithStorage(dir)} }, false},
		{"tiered", tierRecoveryOpts, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(when string, p *Pipeline) {
				t.Helper()
				seen := 0
				for _, is := range p.Result().Integrated() {
					for _, sn := range is.Snippets() {
						want := byID[sn.ID]
						seen++
						text, doc := want.Text, want.Document
						if tc.strip {
							text, doc = "", ""
						}
						if sn.Text != text || sn.Document != doc {
							t.Fatalf("%s: engine holds snippet %d with (%q, %q), want (%q, %q)",
								when, sn.ID, sn.Text, sn.Document, text, doc)
						}
						if !reflect.DeepEqual(sn.Entities, want.Entities) || !reflect.DeepEqual(sn.Terms, want.Terms) ||
							!sn.Timestamp.Equal(want.Timestamp) {
							t.Fatalf("%s: engine's snippet %d lost identification metadata", when, sn.ID)
						}
					}
				}
				if seen != len(corpus.Snippets) {
					t.Fatalf("%s: engine holds %d snippets, want %d", when, seen, len(corpus.Snippets))
				}
			}
			dir := t.TempDir()
			reopen := func(when string) {
				t.Helper()
				p, err := New(tc.opts(dir)...)
				if err != nil {
					t.Fatal(err)
				}
				if w := p.RecoveryWarnings(); len(w) != 0 {
					t.Fatalf("%s: warnings %q", when, w)
				}
				check(when, p)
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
			}
			p, err := New(tc.opts(dir)...)
			if err != nil {
				t.Fatal(err)
			}
			p.IngestAll(corpus.Snippets)
			check("live", p)
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			reopen("restored from the checkpoint")
			if err := os.Remove(filepath.Join(dir, "checkpoint.json")); err != nil {
				t.Fatal(err)
			}
			reopen("replayed")
		})
	}
}
