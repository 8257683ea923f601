package storypivot

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/feed"
)

// settlingPipe is fed the way the server feeds its pipeline: the runner
// settles it after every acknowledged batch (feed.Settler). Embedding
// *Pipeline promotes Ingest and WriteCheckpoint.
type settlingPipe struct{ *Pipeline }

func (sp settlingPipe) Settle() { sp.Result() }

// storyPartition returns src's stories as ascending snippet-ID lists,
// sorted, so two pipelines compare equal exactly when they split the
// source's snippets into the same stories.
func storyPartition(p *Pipeline, src SourceID) [][]SnippetID {
	var out [][]SnippetID
	for _, st := range p.Stories(src) {
		ids := make([]SnippetID, 0, len(st.Snippets))
		for _, sn := range st.Snippets {
			ids = append(ids, sn.ID)
		}
		slices.Sort(ids)
		out = append(out, ids)
	}
	slices.SortFunc(out, slices.Compare[[]SnippetID])
	return out
}

// TestFeedMatchesOrderedIngest feeds one source through a feed manager
// into a refinement-on pipeline that settles per batch, and requires
// the source's stories to be those of the same records ingested in
// fetch order with a settle per batch — on every run, since identification
// is incremental and a source's order is an input to it. A storage-backed
// run is then reopened without its checkpoint, so the pipeline replays the
// store's log: that must give the same stories again, which holds only if
// the store appended the records in the order the engine ingested them.
func TestFeedMatchesOrderedIngest(t *testing.T) {
	const batch = 64
	var src SourceID
	var sns []*Snippet
	for s, part := range datagen.Generate(experiments.CorpusScale(1500, 4, 31)).BySource() {
		if len(part) > len(sns) || len(part) == len(sns) && s < src {
			src, sns = s, part
		}
	}
	// Every pipeline gets its own copies of the records.
	records := func() []*Snippet {
		out := make([]*Snippet, len(sns))
		for i, sn := range sns {
			out[i] = sn.Clone()
		}
		return out
	}

	ref, err := New(WithRefinement(true))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	in := records()
	for i := 0; i < len(in); i += batch {
		ref.IngestAll(in[i:min(i+batch, len(in))])
		ref.Result()
	}
	want := storyPartition(ref, src)

	feedRun := func(opts ...Option) *Pipeline {
		t.Helper()
		p, err := New(append([]Option{WithRefinement(true)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		m, err := feed.NewManager(settlingPipe{p}, feed.Config{BatchSize: batch, PollInterval: 3 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Add(feed.NewReplay(src, records(), 0)); err != nil {
			t.Fatal(err)
		}
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for !m.CaughtUp() && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if got := p.Engine().Ingested(); got != uint64(len(sns)) {
			t.Fatalf("feed ingested %d of %d records", got, len(sns))
		}
		return p
	}
	for run := 1; run <= 5; run++ {
		p := feedRun()
		got := storyPartition(p, src)
		p.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: %d stories through the feed, %d when ingested in fetch order", run, len(got), len(want))
		}
	}

	dir := t.TempDir()
	p := feedRun(WithStorage(dir))
	got := storyPartition(p, src)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("storage-backed run: %d stories through the feed, %d when ingested in fetch order", len(got), len(want))
	}
	if err := os.Remove(filepath.Join(dir, "checkpoint.json")); err != nil {
		t.Fatal(err)
	}
	replayed, err := New(WithRefinement(true), WithStorage(dir), WithAutoAlign(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	replayed.Result()
	if got := storyPartition(replayed, src); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay of the store's log: %d stories, %d when ingested in fetch order", len(got), len(want))
	}
}
