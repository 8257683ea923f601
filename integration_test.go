package storypivot

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/experiments"
)

// TestFullSystemIntegration exercises every subsystem together: synthetic
// corpus → persistent store → streaming identification (temporal, with
// repair and sketch index) → alignment with refinement → queries, source
// profiles, KB context — then a restart recovers identical state.
func TestFullSystemIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system test")
	}
	dir := t.TempDir()
	corpus := datagen.Generate(experiments.CorpusScale(3000, 6, 99))
	truth := experiments.TruthAssignment(corpus)

	p, err := New(
		WithStorage(dir),
		WithRefinement(true),
		WithSketchIndex(true),
		WithKnowledgeBase(SeedKnowledgeBase()),
	)
	if err != nil {
		t.Fatal(err)
	}
	accepted := p.IngestAll(corpus.Snippets)
	if accepted != len(corpus.Snippets) {
		t.Fatalf("accepted %d of %d", accepted, len(corpus.Snippets))
	}
	res := p.Result()
	pred := eval.FromIntegrated(res.Integrated())
	prf := eval.Pairwise(pred, truth)
	if prf.F1 < 0.5 {
		t.Fatalf("end-to-end F1 = %.3f", prf.F1)
	}
	if ari := eval.ARI(pred, truth); ari < 0.4 {
		t.Fatalf("end-to-end ARI = %.3f", ari)
	}
	if len(res.MultiSource()) == 0 {
		t.Fatal("no multi-source stories")
	}
	// Queries operate over the result.
	hot := corpus.Snippets[0].Entities[0]
	if len(p.StoriesByEntity(hot)) == 0 {
		t.Error("StoriesByEntity empty for a known entity")
	}
	if len(p.Timeline(hot)) == 0 {
		t.Error("Timeline empty")
	}
	// Source profiles cover all sources.
	if got := p.SourceProfiles(); len(got) != 6 {
		t.Errorf("profiles = %d", len(got))
	}
	// Entity statistics from the engine are sane.
	if p.Engine().DistinctEntities() == 0 {
		t.Error("DistinctEntities = 0")
	}
	start, end := p.Engine().TimeRange()
	if !start.Before(end) {
		t.Error("TimeRange degenerate")
	}
	wantIntegrated := len(res.Integrated())
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the checkpoint restores identification state. With
	// refinement enabled the next alignment applies a further refinement
	// round on the already-refined state (iterative convergence), so the
	// partitions agree closely rather than exactly; exact restart
	// identity is asserted separately without refinement below.
	p2, err := New(WithStorage(dir), WithRefinement(true), WithSketchIndex(true))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	res2 := p2.Result()
	if got := len(res2.Integrated()); got < wantIntegrated*9/10 || got > wantIntegrated*11/10 {
		t.Fatalf("restart integrated = %d, want ~%d", got, wantIntegrated)
	}
	agreement := eval.Pairwise(eval.FromIntegrated(res2.Integrated()), pred)
	if agreement.F1 < 0.95 {
		t.Fatalf("restart diverged: agreement F1 = %.3f", agreement.F1)
	}
	prf2 := eval.Pairwise(eval.FromIntegrated(res2.Integrated()), truth)
	if prf2.F1 < prf.F1-0.03 {
		t.Fatalf("restart degraded quality: %.3f -> %.3f", prf.F1, prf2.F1)
	}
}

// TestRestartIdentityWithoutRefinement asserts the strong guarantee: with
// refinement off, a checkpointed restart reproduces the partition exactly.
func TestRestartIdentityWithoutRefinement(t *testing.T) {
	dir := t.TempDir()
	corpus := datagen.Generate(experiments.CorpusScale(1500, 4, 77))
	p, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	p.IngestAll(corpus.Snippets)
	pred := eval.FromIntegrated(p.Result().Integrated())
	want := len(p.Result().Integrated())
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint file exists and the fast path engages.
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json")); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	p2, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	res2 := p2.Result()
	if got := len(res2.Integrated()); got != want {
		t.Fatalf("restart integrated = %d, want %d", got, want)
	}
	if f := eval.Pairwise(eval.FromIntegrated(res2.Integrated()), pred).F1; f != 1 {
		t.Fatalf("restart changed the partition: agreement F1 = %.3f", f)
	}
}

// TestCorruptCheckpointFallsBackToReplay injects a broken checkpoint; New
// must replay instead (and, per recovery_test.go, surface a warning).
func TestCorruptCheckpointFallsBackToReplay(t *testing.T) {
	dir := t.TempDir()
	corpus := datagen.Generate(experiments.CorpusScale(600, 3, 9))
	p, _ := New(WithStorage(dir))
	p.IngestAll(corpus.Snippets)
	want := len(p.Result().Integrated())
	p.Close()

	if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	p2, err := New(WithStorage(dir))
	if err != nil {
		t.Fatalf("corrupt checkpoint broke New: %v", err)
	}
	defer p2.Close()
	if got := len(p2.Result().Integrated()); got != want {
		t.Fatalf("replay fallback produced %d stories, want %d", got, want)
	}
}

// TestPipelineSurvivesCorruptStoreTail simulates a crash that tore the
// store's tail: New must recover the intact prefix and keep working.
func TestPipelineSurvivesCorruptStoreTail(t *testing.T) {
	dir := t.TempDir()
	p, err := New(WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	corpus := datagen.Generate(experiments.CorpusScale(400, 3, 5))
	p.IngestAll(corpus.Snippets)
	p.Close()

	// Append garbage to the newest chunk.
	entries, err := os.ReadDir(filepath.Join(dir, "chunks"))
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".log" {
			seg = filepath.Join(dir, "chunks", e.Name())
		}
	}
	if seg == "" {
		t.Fatal("no chunk file")
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01})
	f.Close()

	p2, err := New(WithStorage(dir))
	if err != nil {
		t.Fatalf("pipeline did not survive torn tail: %v", err)
	}
	defer p2.Close()
	if got := int(p2.Engine().Ingested()); got != len(corpus.Snippets) {
		t.Fatalf("recovered %d of %d snippets", got, len(corpus.Snippets))
	}
	// Appends continue cleanly.
	extra := corpus.Snippets[0].Clone()
	extra.ID = SnippetID(1 << 40)
	if err := p2.Ingest(extra); err != nil {
		t.Fatalf("post-recovery ingest: %v", err)
	}
}

// TestPipelineConcurrentUse hammers one pipeline from many goroutines:
// ingest, align, and query concurrently.
func TestPipelineConcurrentUse(t *testing.T) {
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	corpus := datagen.Generate(experiments.CorpusScale(1200, 4, 3))
	parts := corpus.BySource()

	var wg sync.WaitGroup
	for _, src := range corpus.Sources {
		wg.Add(1)
		go func(sns []*Snippet) {
			defer wg.Done()
			for _, sn := range sns {
				p.Ingest(sn)
			}
		}(parts[src])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			p.Result()
			p.Search("anything")
			p.SourceProfiles()
		}
	}()
	wg.Wait()
	covered := 0
	for _, is := range p.Result().Integrated() {
		covered += is.Len()
	}
	if covered != len(corpus.Snippets) {
		t.Fatalf("result covers %d of %d", covered, len(corpus.Snippets))
	}
}
