package storage

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/event"
)

// The GDELT-scale benchmarks ingest 1M/5M/10M synthetic snippets into
// a store with tier budgets (Tiered) and one without, every chunk hot
// (Flat), and report the Go heap after ingest plus the random-read
// latency over the full ID space. The acceptance criterion is the
// shape, not the absolute numbers: tiered heap must stay flat from 1M
// to 10M while the all-hot heap grows linearly.
//
// heap_MB is runtime.ReadMemStats HeapAlloc after a forced GC. Warm
// chunks are mmap'd, so their bytes are deliberately outside this
// number (and outside the steady-state page-cache-evictable RSS the
// tiers exist to bound); the hot tier, the inflate LRU, and all
// per-chunk metadata are inside it.
//
// STORYPIVOT_SCALE_EVENTS overrides the 1M base unit (the 1M/5M/10M
// benchmark names keep their labels; the smoke run only proves the
// benchmarks still run and report).
func scaleBase() int {
	if s := os.Getenv("STORYPIVOT_SCALE_EVENTS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 1_000_000
}

var scaleSources = []event.SourceID{"nyt", "wsj", "bbc", "cnn", "ap", "afp", "rt", "dw"}

// scaleSnippet builds one synthetic snippet with a ~200-byte display
// payload — the part the tiers keep out of memory.
func scaleSnippet(id uint64, t0 time.Time) *event.Snippet {
	src := scaleSources[id%uint64(len(scaleSources))]
	return &event.Snippet{
		ID:        event.SnippetID(id),
		Source:    src,
		Timestamp: t0.Add(time.Duration(id) * time.Second),
		Entities:  []event.Entity{event.Entity(fmt.Sprintf("ent_%d", id%997))},
		Terms: []event.Term{
			{Token: fmt.Sprintf("tok_%d", id%4999), Weight: 1},
			{Token: fmt.Sprintf("tok_%d", id%311), Weight: 0.5},
		},
		Text: fmt.Sprintf("synthetic GDELT-scale event %d from %s: "+
			"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"+
			"bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"+
			"cccccccccccccccccccccccccccccccccccccccccccccccccccccccccccc", id, src),
		Document: fmt.Sprintf("http://%s.example.com/doc%d.html", src, id),
	}
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func benchScale(b *testing.B, n int, tier *TierOptions) {
	t0 := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		st, err := Open(dir, Options{Tier: tier})
		if err != nil {
			b.Fatal(err)
		}
		before := heapMB()
		start := time.Now()
		for id := uint64(1); id <= uint64(n); id++ {
			if err := st.Append(scaleSnippet(id, t0)); err != nil {
				b.Fatal(err)
			}
		}
		ingest := time.Since(start)
		b.ReportMetric(float64(ingest.Nanoseconds())/float64(n), "ns/event")
		b.ReportMetric(heapMB(), "heap_MB")
		b.ReportMetric(before, "heap_base_MB")

		// Random reads across the whole ID space: cold faults, LRU
		// churn, and promotions for the tiered arm; hot-chunk reads for
		// the flat arm. The stride jumps chunks so the tiered p99 is the
		// cold-read path (inflate + decode), not a hot-tier hit.
		const probes = 2000
		lats := make([]float64, probes)
		stride := uint64(n)/probes*7 + 1
		id := uint64(1)
		var total time.Duration
		for p := 0; p < probes; p++ {
			t := time.Now()
			text, _, ok := st.SnippetText(event.SnippetID(id))
			lat := time.Since(t)
			if !ok || text == "" {
				b.Fatalf("SnippetText(%d) lost its payload", id)
			}
			total += lat
			lats[p] = float64(lat.Nanoseconds()) / 1e3
			id = (id+stride-1)%uint64(n) + 1
		}
		sort.Float64s(lats)
		b.ReportMetric(float64(total.Microseconds())/probes, "read_us")
		b.ReportMetric(lats[probes/2], "read_p50_us")
		b.ReportMetric(lats[probes*99/100], "read_p99_us")
		ts := st.TierStats()
		b.ReportMetric(float64(ts.Hot), "hot_chunks")
		b.ReportMetric(float64(ts.Warm), "warm_chunks")
		b.ReportMetric(float64(ts.Cold), "cold_chunks")
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
	}
}

// scaleTier sizes chunks for a 10M-row corpus: per-chunk metadata is
// O(1), so rows-per-chunk sets the heap slope — 16384 rows keeps the
// 10M-row metadata tail well under the fixed hot-tier footprint (the
// 4096 default is tuned for interactive demo corpora instead).
func scaleTier() *TierOptions { return &TierOptions{ChunkRows: 16384, Compress: true} }

func BenchmarkScaleTiered1M(b *testing.B)  { benchScale(b, scaleBase(), scaleTier()) }
func BenchmarkScaleTiered5M(b *testing.B)  { benchScale(b, 5*scaleBase(), scaleTier()) }
func BenchmarkScaleTiered10M(b *testing.B) { benchScale(b, 10*scaleBase(), scaleTier()) }
func BenchmarkScaleFlat1M(b *testing.B)    { benchScale(b, scaleBase(), nil) }
func BenchmarkScaleFlat5M(b *testing.B)    { benchScale(b, 5*scaleBase(), nil) }
func BenchmarkScaleFlat10M(b *testing.B)   { benchScale(b, 10*scaleBase(), nil) }
