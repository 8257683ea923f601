// Command storypivot-router fronts a sharded StoryPivot deployment: it
// owns no pipeline, routes document ingest to the worker shard owning
// the document's source (consistent hashing, admin-reconfigurable), and
// scatter-gathers the query endpoints across every worker, merging the
// per-shard ranked pages under the same ordering the in-process index
// uses. A worker outage degrades responses ("partial": true) instead of
// failing them; /healthz turns 503 only when a majority of workers is
// down.
//
// Usage:
//
//	storypivot-server -addr :8081 -cluster-worker &
//	storypivot-server -addr :8082 -cluster-worker &
//	storypivot-router -addr :8080 -members w1=http://localhost:8081,w2=http://localhost:8082
//
// The member list and source pins can be changed without restart via
// PUT /api/cluster/members.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/feed"
	"repro/internal/httpx"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("storypivot-router: ")
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		metricsAddr = flag.String("metrics-addr", "", "optional extra listen address for /metrics and /debug")
		members     = flag.String("members", "", "comma-separated worker shards, each name=url (or bare url, named w1..wN)")
		pins        = flag.String("pins", "", "comma-separated source pins, each source=member-name, overriding hash placement")

		shardTimeout = flag.Duration("shard-timeout", 5*time.Second, "per-shard request deadline")
		hedgeAfter   = flag.Duration("hedge-after", 0, "duplicate a slow shard GET after this long (0 = no hedging)")

		probeInterval = flag.Duration("probe-interval", 2*time.Second, "background worker health-probe period")
		probeTimeout  = flag.Duration("probe-timeout", 1*time.Second, "per-probe deadline")
		failThreshold = flag.Int("fail-threshold", 3, "consecutive failures (probe or live traffic) that quarantine a worker")
		cooldown      = flag.Duration("cooldown", 10*time.Second, "how long a quarantined worker waits before a half-open readmission probe")

		ingestRetries   = flag.Int("ingest-retries", 3, "retries for a routed ingest whose owner shard fails transiently")
		ingestRetryBase = flag.Duration("ingest-retry-base", 50*time.Millisecond, "base of the full-jitter backoff between ingest retries")
		ingestRetryCap  = flag.Duration("ingest-retry-cap", 2*time.Second, "cap of the full-jitter backoff between ingest retries")

		feedReplay        = flag.Int("feed-replay", 0, "cluster-managed feeds: replay a generated corpus of ~N snippets, each source's runner placed on its ring owner and failed over on quarantine (0 = off)")
		feedSources       = flag.Int("feed-replay-sources", 3, "number of sources in the cluster-replayed corpus")
		feedSeed          = flag.Int64("feed-replay-seed", 42, "seed for the cluster-replayed corpus")
		feedNDJSON        = flag.String("feed-ndjson", "", "cluster-managed feeds: comma-separated source=url NDJSON endpoints, each assigned to its ring owner")
		reconcileInterval = flag.Duration("reconcile-interval", 2*time.Second, "feed coordinator steady-state reconcile period (health changes reconcile immediately)")

		maxInflight    = flag.Int("max-inflight", 256, "admission gate: max concurrent requests before shedding with 429 (0 = unlimited)")
		retryAfter     = flag.Duration("retry-after", 1*time.Second, "Retry-After hint sent with 429 responses")
		requestTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request context deadline (0 = none)")
		maxBodyBytes   = flag.Int64("max-body-bytes", 8<<20, "request body size cap in bytes (0 = unlimited)")
		shutdownGrace  = flag.Duration("shutdown-grace", httpx.DefaultShutdownGrace, "drain budget for in-flight requests on SIGINT/SIGTERM")
	)
	flag.Parse()

	ms, err := parseMembers(*members)
	if err != nil {
		log.Fatal(err)
	}
	ps, err := parsePins(*pins)
	if err != nil {
		log.Fatal(err)
	}
	specs, err := buildFeedSpecs(*feedNDJSON, *feedReplay, *feedSources, *feedSeed)
	if err != nil {
		log.Fatal(err)
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Members: ms,
		Pins:    ps,
		Client: cluster.ClientConfig{
			Timeout:    *shardTimeout,
			HedgeAfter: *hedgeAfter,
		},
		Health: cluster.HealthConfig{
			ProbeInterval: *probeInterval,
			ProbeTimeout:  *probeTimeout,
			FailThreshold: *failThreshold,
			Cooldown:      *cooldown,
		},
		Ingest: cluster.IngestConfig{
			Retries:   *ingestRetries,
			RetryBase: *ingestRetryBase,
			RetryCap:  *ingestRetryCap,
		},
		Feeds:             specs,
		ReconcileInterval: *reconcileInterval,
	})
	if err != nil {
		log.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	if len(specs) > 0 {
		log.Printf("coordinating %d cluster feeds (reconcile every %s)", len(specs), *reconcileInterval)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var metrics *obs.DebugServer
	if *metricsAddr != "" {
		metrics, err = obs.StartDebug(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("metrics on http://%s/metrics", *metricsAddr)
	}

	handler := rt.HandlerWith(httpx.Config{
		MaxInflight:    *maxInflight,
		RetryAfter:     *retryAfter,
		RequestTimeout: *requestTimeout,
		MaxBodyBytes:   *maxBodyBytes,
	})
	srv := httpx.NewServer(*addr, handler, httpx.ServerConfig{
		ShutdownGrace: *shutdownGrace,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range ms {
		log.Printf("shard %s → %s", m.Name, m.URL)
	}
	log.Printf("routing on %s", *addr)

	err = httpx.Serve(ctx, srv, ln, *shutdownGrace)
	if err != nil {
		log.Printf("serve: %v", err)
	}
	if metrics != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if merr := metrics.Shutdown(sctx); merr != nil {
			log.Printf("metrics shutdown: %v", merr)
		}
	}
	if err != nil {
		os.Exit(1)
	}
	log.Printf("drained, bye")
}

// replayIDOffset mirrors the worker cmd's constant: replayed snippet
// IDs live far above anything the extraction pipeline mints.
const replayIDOffset = 1 << 32

// buildFeedSpecs assembles the cluster-managed feed definitions the
// coordinator will place on workers. Replay specs carry only the corpus
// parameters — each assigned worker regenerates the corpus
// deterministically — but the router must generate it once itself to
// learn the source names that key ring placement.
func buildFeedSpecs(ndjson string, replay, sources int, seed int64) ([]feed.Spec, error) {
	var specs []feed.Spec
	if ndjson != "" {
		for _, pair := range strings.Split(ndjson, ",") {
			src, u, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || src == "" || u == "" {
				return nil, fmt.Errorf("bad -feed-ndjson entry %q (want source=url)", pair)
			}
			specs = append(specs, feed.Spec{Source: src, Type: "ndjson", URL: u})
		}
	}
	if replay > 0 {
		bySource := datagen.Generate(experiments.CorpusScale(replay, sources, seed)).BySource()
		names := make([]string, 0, len(bySource))
		for src := range bySource {
			names = append(names, string(src))
		}
		sort.Strings(names)
		for _, src := range names {
			specs = append(specs, feed.Spec{
				Source:   src,
				Type:     "replay",
				Events:   replay,
				Sources:  sources,
				Seed:     seed,
				IDOffset: replayIDOffset,
			})
		}
	}
	return specs, nil
}

// parseMembers accepts "w1=http://host:1234,w2=http://host:1235" or
// bare URLs (auto-named w1..wN).
func parseMembers(s string) ([]cluster.Member, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("need -members (comma-separated name=url)")
	}
	var out []cluster.Member
	for i, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if name, url, ok := strings.Cut(part, "="); ok {
			out = append(out, cluster.Member{Name: name, URL: strings.TrimSuffix(url, "/")})
		} else {
			out = append(out, cluster.Member{Name: fmt.Sprintf("w%d", i+1), URL: strings.TrimSuffix(part, "/")})
		}
	}
	return out, nil
}

func parsePins(s string) (map[string]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		src, name, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad pin %q (want source=member)", part)
		}
		out[src] = name
	}
	return out, nil
}
