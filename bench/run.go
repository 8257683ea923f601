package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/event"
)

// runSeconds is BENCHMARK.json's run_seconds. Work is fixed, not timed:
// the op counts below make each measured phase last about this long on
// the seed commit at nproc=2, and --seconds scales them in proportion.
// They were calibrated once (see README.md) and are not adjusted at run
// time, so two commits do the same work and reach the same final state.
const runSeconds = 30

// workload is one fixed-work traffic pattern.
type workload struct {
	name string
	ops  int // measured ops at --seconds runSeconds
	warm int // warm-up reads before the measured phase, at the same scale
	// traceBlock is how many consecutive ops of a traced run share a
	// tracing state; it holds whole write cycles.
	traceBlock int
	// f1Floor fails a run whose integrated stories score below it; it is
	// pinned a few points under the seed commit's value.
	f1Floor float64
	why     string
}

var workloads = []workload{{
	// The whole stream: the corpus has 4385 snippets.
	name: "ingest-stream", ops: 4385, traceBlock: 2 * ingestBatch, f1Floor: 0.62,
	why: "library ingest with a settle per 32 snippets: align, refine, stream and index publish do the work, the serving layers none",
}, {
	name: "read-only", ops: 720000, warm: 8192, traceBlock: 24000, f1Floor: 0.62,
	why: "settled server under the zipfian read mix: index, cache, encode, httpx and net/http do the work, identify and align none",
}, {
	name: "mixed-serve", ops: 3600, warm: 8192, traceBlock: 4 * writeEvery, f1Floor: 0.62,
	why: "the read mix with 1 op in 32 a document POST: every write dirties the engine and the next reads stall behind the settle",
}, {
	name: "cluster-mixed", ops: 20000, warm: 2048, traceBlock: 16 * writeEvery, f1Floor: 0.25,
	why: "the mixed sequence through the router over 3 workers: relay, scatter and merge run only here, settles are per shard",
}}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	smokeScale   = 1.0 / 20
	heldOutShare = 0.2 // mixed workloads preload the first 80 % of the corpus
	warmSalt     = 0x5eed
	onionDocs    = 48 // held-out documents the onion replays per write-path boundary, at scale 1
	onionWrites  = 4  // write-path boundaries that each consume their own documents
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	scale    float64 // --seconds / runSeconds
	smoke    bool
	trace    bool
	outDir   string
	// started is when set-up began: the process's start for a run of its
	// own, the call of run otherwise.
	started time.Time
	log     func(format string, args ...any)
}

// report is what a run prints.
type report struct {
	attempted, failed int
	problems          []string // output checks that failed
	digest            string
	values            map[string]float64
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// replayDocs is how many held-out documents each write-path boundary of
// the onion replay consumes.
func replayDocs(scale float64) int {
	if scale >= 1 {
		return onionDocs
	}
	return max(4, scaled(onionDocs, scale))
}

func scaled(n int, scale float64) int {
	if v := int(math.Round(float64(n) * scale)); v > 1 {
		return v
	}
	return 1
}

// fixture is a set-up system with the inputs of its measured phase.
type fixture struct {
	c        *corpus
	ks       *keyspace
	ops      []op
	digest   string
	expected uint64 // sum of opHash over ops
	preload  []*event.Snippet
	measured []*event.Snippet // ingest-stream: the snippets the phase ingests
	heldOut  []*event.Snippet // mixed workloads: first the documents POSTed, last the onion's
	writes   int
	t        *target
	load     *httpLoad
	clients  int
}

func (f *fixture) library() bool { return f.t.pipe != nil }

func (f *fixture) close() {
	if f.load != nil {
		f.load.close()
	}
	f.t.close()
}

// generate makes a workload's inputs from the seed: the delivery order,
// the op sequence and its digest.
func generate(cfg runConfig, w workload) (*fixture, error) {
	f := &fixture{c: buildCorpus(cfg.smoke, cfg.seed), clients: clientCount()}
	n := scaled(w.ops, cfg.scale)
	f.preload = f.c.arrival
	switch w.name {
	case "ingest-stream":
		// The stream from its beginning, into an empty pipeline.
		n = min(n, len(f.c.arrival))
		f.preload, f.measured = nil, f.c.arrival[:n]
		f.ops = make([]op, n)
		for i := range f.ops {
			f.ops[i] = op{kind: opIngest, key: int32(i)}
		}
	case "read-only":
		f.ks = buildKeyspace(f.c)
		f.ops = readmix(f.ks, cfg.seed, n, 0)
	default:
		f.ks = buildKeyspace(f.c)
		cut := len(f.c.arrival) - int(float64(len(f.c.arrival))*heldOutShare)
		f.preload, f.heldOut = f.c.arrival[:cut], f.c.arrival[cut:]
		f.writes = n / writeEvery
		if reserve := onionWrites * replayDocs(cfg.scale); f.writes+reserve > len(f.heldOut) {
			return nil, fmt.Errorf("%d writes and %d replay documents exceed the %d held-out snippets", f.writes, reserve, len(f.heldOut))
		}
		if err := f.c.assertExtraction(f.heldOut); err != nil {
			return nil, err
		}
		f.ops = readmix(f.ks, cfg.seed, n, f.writes)
	}
	f.digest, f.expected = digest(f.ops, func(o op) string {
		switch o.kind {
		case opWrite:
			return f.heldOut[o.key].Document
		case opIngest:
			return f.measured[o.key].Document
		}
		return f.ks.keys[o.key].path
	})
	return f, nil
}

// setUp generates the inputs, builds the system, preloads and settles
// it, and warms connections and the cache.
func setUp(cfg runConfig, w workload, tr *tracer) (*fixture, error) {
	f, err := generate(cfg, w)
	if err != nil {
		return nil, err
	}
	docs := make([][]byte, f.writes)
	for i := range docs {
		docs[i] = documentJSON(f.heldOut[i])
	}
	switch w.name {
	case "ingest-stream":
		f.t, err = newLibraryTarget(filepath.Join(cfg.outDir, fmt.Sprintf("store-%d", os.Getpid())), tr)
	case "cluster-mixed":
		f.t, err = newClusterTarget(f.c, f.preload, tr)
	default:
		f.t, err = newServerTarget(f.c, f.preload, tr)
	}
	if err != nil {
		return nil, err
	}
	if f.library() {
		return f, nil
	}
	if f.load, err = newHTTPLoad(f.t, f.ks, docs, f.clients); err != nil {
		f.t.close()
		return nil, err
	}
	warmup := readmix(f.ks, cfg.seed^warmSalt, scaled(w.warm, cfg.scale), 0)
	warm, _ := f.load.run(warmup, f.clients, newPhase(len(warmup)))
	if warm.failed > 0 {
		f.close()
		return nil, fmt.Errorf("warm-up: %d of %d reads failed: %v", warm.failed, warm.attempted, warm.errs)
	}
	return f, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func run(cfg runConfig) (*report, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.log == nil {
		cfg.log = func(string, ...any) {}
	}
	if cfg.started.IsZero() {
		cfg.started = time.Now()
	}
	rep := &report{values: map[string]float64{}}

	// Set-up, once: internal/vocab interns process-wide, so a second
	// set-up in this process would not be the first one's equal.
	var tr *tracer
	if cfg.trace {
		tr = newTracer(6*scaled(w.ops, cfg.scale) + 1<<16)
	}
	f, err := setUp(cfg, w, tr)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if f.ks != nil {
		cfg.log("inputs: %d read keys (%d search, %d by-entity, %d timeline), %d preloaded snippets, %d writes",
			len(f.ks.keys), len(f.ks.byKind[opSearch]), len(f.ks.byKind[opEntity]), len(f.ks.byKind[opTimeline]), len(f.preload), f.writes)
	} else {
		cfg.log("inputs: %d measured snippets", len(f.measured))
	}
	rep.digest = f.digest
	t := f.t

	// Measured phase.
	ph := newPhase(len(f.ops))
	if tr != nil {
		ph.doneAt = make([]int64, len(f.ops))
		ph.block = max(scaled(w.traceBlock, min(cfg.scale, 1)), 2*writeEvery)
		tr.measuring.Store(true)
	}
	runtime.GC()
	ingestedBefore := t.ingested()
	mallocsBefore, obsBefore := mallocs(), takeObs()
	rep.values["setup_s"] = time.Since(cfg.started).Seconds()
	cpuBefore := cpuTime()
	var (
		ta   *tally
		wall time.Duration
	)
	if f.library() {
		owner := make(map[event.SourceID]int, len(f.c.sources))
		for i, src := range f.c.sources {
			owner[src] = i % f.clients
		}
		ta, wall = runIngest(t, f.ops, f.measured, owner, f.clients, ph)
	} else {
		ta, wall = f.load.run(f.ops, f.clients, ph)
	}
	cpu := cpuTime() - cpuBefore
	mallocsAfter, obsAfter := mallocs(), takeObs()
	if tr != nil {
		tr.on.Store(false)
		tr.measuring.Store(false)
	}
	rep.values["heap_mb"] = heapMB()

	opsDone := float64(ta.attempted)
	samples := ph.samples()
	rep.attempted, rep.failed = ta.attempted, ta.failed
	rep.values["failed_ratio"] = float64(ta.failed) / opsDone
	rep.values["ops_per_s"] = opsDone / wall.Seconds()
	rep.values["cpu_us_per_op"] = float64(cpu.Microseconds()) / opsDone
	rep.values["latency_p50_us"] = float64(percentile(samples, 50)) / 1e3
	rep.values["latency_p99_us"] = float64(percentile(samples, 99)) / 1e3
	rep.values["allocs_per_op"] = float64(mallocsAfter-mallocsBefore) / opsDone
	integrated := t.integrated()
	f1 := f.c.f1(integrated)
	rep.values["f1_integrated"] = f1
	cfg.log("measured %d ops in %.2fs with %d clients, %d latency samples", ta.attempted, wall.Seconds(), f.clients, len(samples))

	// Output checks.
	for _, e := range ta.errs {
		rep.problem("%s", e)
	}
	if ta.attempted != len(f.ops) || ta.consumed != f.expected {
		rep.problem("clients consumed %d ops (sum %016x), generated %d (sum %016x)", ta.attempted, ta.consumed, len(f.ops), f.expected)
	}
	wantAccepted := f.writes
	if f.library() {
		wantAccepted = len(f.measured)
	}
	if ta.accepted != wantAccepted {
		rep.problem("%d snippets accepted, %d sent", ta.accepted, wantAccepted)
	}
	if got := t.ingested() - ingestedBefore; got != uint64(wantAccepted) {
		rep.problem("engines ingested %d snippets in the measured phase, %d sent", got, wantAccepted)
	}
	if ta.searches > 0 && float64(ta.searchHits) < 0.9*float64(ta.searches) {
		rep.problem("%d of %d search responses were non-empty, want at least 90%%", ta.searchHits, ta.searches)
	}
	if cfg.scale >= 1 && len(samples) < 1000 {
		rep.problem("%d latency samples, want at least 1000", len(samples))
	}
	if !cfg.smoke && f1 < w.f1Floor {
		rep.problem("f1_integrated %.4f is below the pinned floor %.2f", f1, w.f1Floor)
	}
	if !f.library() {
		ps := probes(f.ks)
		if err := checkScan(f.load.client, t, ps); err != nil {
			rep.problem("%v", err)
		}
		if err := checkRefetch(f.load.client, t, ps); err != nil {
			rep.problem("%v", err)
		}
	}

	if tr != nil {
		if d := tr.dropped.Load(); d > 0 {
			rep.problem("trace buffer overflowed: %d spans dropped", d)
		}
		lt := &layerTrace{
			cfg: cfg, f: f, tr: tr, tally: ta, ph: ph, wall: wall,
			delta: obsDelta{obsBefore, obsAfter}, integrated: integrated,
		}
		if err := lt.report(rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

var errIncorrect = errors.New("output checks failed")
