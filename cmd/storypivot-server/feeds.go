package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	storypivot "repro"
	"repro/internal/datagen"
	"repro/internal/event"
	"repro/internal/experiments"
	"repro/internal/feed"
	"repro/internal/server"
)

// replayIDOffset lifts replayed snippet IDs far above anything the
// extraction pipeline mints from POSTed documents, so the two ID spaces
// cannot collide inside one engine.
const replayIDOffset = 1 << 32

// feedFlags collects the -feed-* flag values.
type feedFlags struct {
	ndjson        string
	replay        int
	replaySources int
	replaySeed    int64
	flakyFirst    int
	flakyEvery    int

	backoffBase      time.Duration
	backoffCap       time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	fetchTimeout     time.Duration
	batch            int
	poll             time.Duration
	checkpointEvery  time.Duration
	stateDir         string
}

func registerFeedFlags(ff *feedFlags) {
	flag.StringVar(&ff.ndjson, "feed-ndjson", "", "comma-separated source=url list of NDJSON feed endpoints to ingest continuously")
	flag.IntVar(&ff.replay, "feed-replay", 0, "replay a generated corpus of ~N snippets as continuous feeds (0 = off)")
	flag.IntVar(&ff.replaySources, "feed-replay-sources", 3, "number of sources in the replayed corpus")
	flag.Int64Var(&ff.replaySeed, "feed-replay-seed", 42, "seed for the replayed corpus")
	flag.IntVar(&ff.flakyFirst, "feed-flaky-first", 0, "inject failures into the first feed source: fail its first N fetches")
	flag.IntVar(&ff.flakyEvery, "feed-flaky-every", 0, "inject failures into the first feed source: fail every Nth fetch after that")

	flag.DurationVar(&ff.backoffBase, "feed-backoff-base", 100*time.Millisecond, "base retry backoff per feed source (full jitter, doubling)")
	flag.DurationVar(&ff.backoffCap, "feed-backoff-cap", 30*time.Second, "retry backoff cap per feed source")
	flag.IntVar(&ff.breakerThreshold, "feed-breaker-threshold", 5, "consecutive fetch failures that quarantine a source")
	flag.DurationVar(&ff.breakerCooldown, "feed-breaker-cooldown", 30*time.Second, "how long a quarantined source waits before a half-open probe")
	flag.DurationVar(&ff.fetchTimeout, "feed-fetch-timeout", 10*time.Second, "per-fetch timeout")
	flag.IntVar(&ff.batch, "feed-batch", 64, "records per fetch")
	flag.DurationVar(&ff.poll, "feed-poll", 500*time.Millisecond, "poll interval for caught-up sources")
	flag.DurationVar(&ff.checkpointEvery, "feed-checkpoint-every", 15*time.Second, "period between cursor+pipeline checkpoints (0 = only at shutdown)")
	flag.StringVar(&ff.stateDir, "feed-state-dir", "", "directory for feed resume cursors and the dead-letter queue (empty = in-memory only)")
}

// pipelineSink routes feed snippets to the server's *live* pipeline
// snapshot — a rebuild (document deselection) must not strand the feed
// on a closed pipeline — and forwards checkpoint requests so cursors
// are persisted alongside pipeline state. Like every server write path
// it settles before it acknowledges: after each batch (feed.Settler) and
// after a source removal, so the server's reads never settle.
type pipelineSink struct{ s *server.Server }

func (ps pipelineSink) Ingest(sn *storypivot.Snippet) error {
	return ps.s.Pipeline().Ingest(sn)
}

// Settle implements feed.Settler.
func (ps pipelineSink) Settle() {
	ps.s.Pipeline().Result()
}

func (ps pipelineSink) WriteCheckpoint() error {
	return ps.s.Pipeline().WriteCheckpoint()
}

// RemoveSource implements feed.SourceRemover: when the router withdraws
// an interim feed tenure from this worker, the tenure's ingested data is
// deleted so the returning ring owner's copy is the only one visible.
func (ps pipelineSink) RemoveSource(src event.SourceID) bool {
	p := ps.s.Pipeline()
	ok := p.RemoveSource(src)
	p.Result()
	return ok
}

// replaySpecFetcher builds fetchers for cluster-assigned "replay" specs:
// the corpus is regenerated deterministically from (events, sources,
// seed) rather than shipped over the wire. Generated corpora are cached
// so N sources of one corpus cost one generation.
func replaySpecFetcher() feed.SpecFetcher {
	type corpusKey struct {
		events, sources int
		seed            int64
	}
	var mu sync.Mutex
	cache := make(map[corpusKey]map[event.SourceID][]*event.Snippet)
	return func(sp feed.Spec) (feed.Fetcher, error) {
		if sp.Type != "replay" {
			return nil, fmt.Errorf("unsupported feed spec type %q for source %q", sp.Type, sp.Source)
		}
		if sp.Events <= 0 || sp.Sources <= 0 {
			return nil, fmt.Errorf("replay spec %q needs events and sources", sp.Source)
		}
		key := corpusKey{sp.Events, sp.Sources, sp.Seed}
		mu.Lock()
		bySource, ok := cache[key]
		if !ok {
			bySource = datagen.Generate(experiments.CorpusScale(sp.Events, sp.Sources, sp.Seed)).BySource()
			cache[key] = bySource
		}
		mu.Unlock()
		snippets, ok := bySource[event.SourceID(sp.Source)]
		if !ok {
			return nil, fmt.Errorf("replay spec %q: source not in generated corpus", sp.Source)
		}
		offset := sp.IDOffset
		if offset == 0 {
			offset = replayIDOffset
		}
		return feed.NewReplay(event.SourceID(sp.Source), snippets, offset), nil
	}
}

// buildFeeds assembles the feed manager from flags. It returns nil when
// no feed flags are in use — except in cluster-worker mode, where an
// (initially empty) manager always exists so the router's feed
// coordinator can assign sources to this worker at runtime.
func buildFeeds(s *server.Server, ff feedFlags, clusterWorker bool) (*feed.Manager, error) {
	if ff.ndjson == "" && ff.replay <= 0 && !clusterWorker {
		return nil, nil
	}
	cfg := feed.Config{
		BackoffBase:      ff.backoffBase,
		BackoffCap:       ff.backoffCap,
		BreakerThreshold: ff.breakerThreshold,
		BreakerCooldown:  ff.breakerCooldown,
		FetchTimeout:     ff.fetchTimeout,
		BatchSize:        ff.batch,
		PollInterval:     ff.poll,
		CheckpointEvery:  ff.checkpointEvery,
	}
	if ff.stateDir != "" {
		cfg.CursorPath = filepath.Join(ff.stateDir, "cursors.json")
		cfg.DLQDir = filepath.Join(ff.stateDir, "dlq")
	}
	if clusterWorker {
		cfg.SpecFetcher = replaySpecFetcher()
	}
	m, err := feed.NewManager(pipelineSink{s}, cfg)
	if err != nil {
		return nil, err
	}
	var fetchers []feed.Fetcher
	if ff.ndjson != "" {
		for _, pair := range strings.Split(ff.ndjson, ",") {
			src, url, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || src == "" || url == "" {
				return nil, fmt.Errorf("bad -feed-ndjson entry %q (want source=url)", pair)
			}
			fetchers = append(fetchers, feed.NewHTTPFetcher(event.SourceID(src), url, nil))
		}
	}
	if ff.replay > 0 {
		corpus := datagen.Generate(experiments.CorpusScale(ff.replay, ff.replaySources, ff.replaySeed))
		bySource := corpus.BySource()
		srcs := make([]event.SourceID, 0, len(bySource))
		for src := range bySource {
			srcs = append(srcs, src)
		}
		sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
		for _, src := range srcs {
			fetchers = append(fetchers, feed.NewReplay(src, bySource[src], replayIDOffset))
		}
	}
	if ff.flakyFirst > 0 || ff.flakyEvery > 0 {
		if len(fetchers) == 0 {
			return nil, fmt.Errorf("-feed-flaky-* set but no feed sources configured")
		}
		fetchers[0] = &feed.Flaky{
			Fetcher:   fetchers[0],
			FailFirst: ff.flakyFirst,
			FailEvery: ff.flakyEvery,
		}
		log.Printf("feed: injecting failures into source %q (first %d fetches, then every %d)",
			fetchers[0].Source(), ff.flakyFirst, ff.flakyEvery)
	}
	for _, f := range fetchers {
		if err := m.Add(f); err != nil {
			return nil, err
		}
	}
	log.Printf("feed: %d sources, breaker %d/%s, state dir %q",
		len(fetchers), ff.breakerThreshold, ff.breakerCooldown, ff.stateDir)
	return m, nil
}
