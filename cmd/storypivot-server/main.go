// Command storypivot-server starts the interactive StoryPivot
// demonstration: the document-selection, story-overview, stories-per-
// source, snippets-per-story, and statistics modules of the paper's demo
// (Figures 3–7), served over HTTP.
//
// Usage:
//
//	storypivot-server -addr :8080
//
// The server starts preloaded with the paper's running example (the MH17
// downing as covered by two newspapers, plus the unrelated Google/Yelp
// story from Figure 3); add or remove documents in the UI to watch the
// identification and alignment results change.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	storypivot "repro"
	"repro/internal/curated"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/quota"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("storypivot-server: ")
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		metricsAddr = flag.String("metrics-addr", "", "optional extra listen address for /metrics, /debug/vars, and /debug/pprof (they are always also served on -addr)")
		refine      = flag.Bool("refine", true, "run refinement after alignment")
		useCur      = flag.Bool("curated", false, "preload the full curated 2014 corpus instead of the MH17 mini-example")
		useComp     = flag.Bool("complete", false, "use complete-history identification (suits sparse curated archives)")

		readTimeout       = flag.Duration("read-timeout", httpx.DefaultReadTimeout, "max duration for reading a full request")
		readHeaderTimeout = flag.Duration("read-header-timeout", httpx.DefaultReadHeaderTimeout, "max duration for reading request headers")
		writeTimeout      = flag.Duration("write-timeout", httpx.DefaultWriteTimeout, "max duration for writing a response")
		idleTimeout       = flag.Duration("idle-timeout", httpx.DefaultIdleTimeout, "max keep-alive idle time per connection")
		maxHeaderBytes    = flag.Int("max-header-bytes", httpx.DefaultMaxHeaderBytes, "request header size cap")
		maxBodyBytes      = flag.Int64("max-body-bytes", 8<<20, "request body size cap in bytes (0 = unlimited)")
		maxInflight       = flag.Int("max-inflight", 256, "admission gate: max concurrent requests before shedding with 429 (0 = unlimited)")
		retryAfter        = flag.Duration("retry-after", 1*time.Second, "Retry-After hint sent with 429 responses")
		requestTimeout    = flag.Duration("request-timeout", 30*time.Second, "per-request context deadline (0 = none)")
		shutdownGrace     = flag.Duration("shutdown-grace", httpx.DefaultShutdownGrace, "drain budget for in-flight requests on SIGINT/SIGTERM")

		quotaRPS   = flag.Float64("quota-rps", 0, "per-tenant sustained requests/sec on /api/* (0 = quotas disabled); tune live via PUT /api/admin/quotas")
		quotaBurst = flag.Int("quota-burst", 20, "per-tenant burst size (tokens banked at the sustained rate)")

		cacheTTL        = flag.Duration("cache-ttl", 30*time.Second, "query result cache entry lifetime (0 = caching disabled)")
		cacheShards     = flag.Int("cache-shards", 16, "query result cache shard count (rounded up to a power of two)")
		cacheMaxEntries = flag.Int("cache-max-entries", 4096, "query result cache capacity across all shards (-1 = unbounded)")

		clusterWorker = flag.Bool("cluster-worker", false, "run as a cluster worker shard: start empty (no demo preload) and serve only the sources the router assigns here")
		peers         = flag.String("peers", "", "comma-separated URLs of the other workers (cluster mode, advertised on GET /api/cluster/members)")

		storeDir      = flag.String("store-dir", "", "persist snippets to this event-store directory (replayed on restart)")
		storeWarm     = flag.Int("store-warm-mmap", 0, "bound store residency: the newest sealed chunks kept mmap'd read-only, older ones go cold; setting any -store-* tier flag bounds the store and strips display text from the engine (default: every sealed chunk stays mapped; 0 = 16 once bounded; requires -store-dir)")
		storeColdComp = flag.Bool("store-cold-compress", true, "bound store residency: gzip-compress chunks demoted to the cold tier")

		window            = flag.Duration("window", 0, "story retirement window W of event time: stories with no new evidence for W are archived to <store-dir>/archive and evicted, bounding resident memory (0 = retirement disabled; requires -store-dir); tune live via PUT /api/admin/window")
		retireGrace       = flag.Duration("retire-grace", 0, "holdback before a reactivated story may retire again (0 = W/4)")
		retireMinResident = flag.Int("retire-min-resident", 0, "skip retirement while at most this many stories are resident")
	)
	var ff feedFlags
	registerFeedFlags(&ff)
	flag.Parse()

	// The tier budgets engage when any tier flag is given explicitly; a
	// plain -store-dir keeps every sealed chunk mapped.
	tiered := false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "store-warm-mmap", "store-cold-compress":
			tiered = true
		}
	})
	if tiered && *storeDir == "" {
		log.Fatal("-store-warm-mmap/-store-cold-compress require -store-dir")
	}
	if *window > 0 && *storeDir == "" {
		log.Fatal("-window requires -store-dir")
	}

	// Watch for SIGINT/SIGTERM from here on: the drain path below owns
	// process exit, so nothing may log.Fatal once the listener is up.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var metrics *obs.DebugServer
	if *metricsAddr != "" {
		var err error
		metrics, err = obs.StartDebug(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("metrics on http://%s/metrics", displayAddr(metrics.Addr()))
	}

	opts := []storypivot.Option{
		storypivot.WithRefinement(*refine),
		storypivot.WithKnowledgeBase(storypivot.SeedKnowledgeBase()),
	}
	if *useCur {
		// The curated arcs span months with coverage gaps; give the
		// pipeline the archival-friendly settings (see experiment E3).
		opts = append(opts, storypivot.WithGazetteer(curated.Gazetteer()),
			storypivot.WithAlignSlack(60*24*time.Hour))
		if *useComp {
			opts = append(opts, storypivot.WithMode(storypivot.ModeComplete))
		} else {
			opts = append(opts, storypivot.WithWindow(60*24*time.Hour))
		}
	}
	if *storeDir != "" {
		// Deselect rebuilds open the new pipeline over the same store
		// directory, archive included, before the old one closes;
		// mutations serialize on the server's write lock and the tier
		// manifest self-heals at open.
		opts = append(opts, storypivot.WithStorage(*storeDir))
		if tiered {
			opts = append(opts, storypivot.WithTieredStorage(*storeWarm, *storeColdComp))
		}
	}
	if *window > 0 {
		opts = append(opts, storypivot.WithRetireWindow(*window))
		if *retireGrace > 0 {
			opts = append(opts, storypivot.WithRetireGrace(*retireGrace))
		}
		if *retireMinResident > 0 {
			opts = append(opts, storypivot.WithRetireMinResident(*retireMinResident))
		}
	}
	s, err := server.New(opts...)
	if err != nil {
		log.Fatal(err)
	}
	if *cacheTTL != 0 {
		s.EnableCache(qcache.Config{
			TTL:        *cacheTTL,
			Shards:     *cacheShards,
			MaxEntries: *cacheMaxEntries,
		})
	}
	if *quotaRPS > 0 {
		s.EnableQuotas(quota.Limit{RPS: *quotaRPS, Burst: *quotaBurst})
	}
	if *clusterWorker {
		// Workers start empty: their documents arrive through the router,
		// which hashes each source to its owning shard.
		var ps []string
		if *peers != "" {
			ps = strings.Split(*peers, ",")
		}
		s.SetPeers(ps)
	} else if len(s.Pipeline().Sources()) > 0 {
		// A -store-dir corpus was replayed at open; seeding the demo
		// selection on top would re-ingest it on every restart.
		log.Printf("restored corpus from %s, skipping demo preload", *storeDir)
	} else {
		if *useCur {
			for _, cd := range curated.Corpus() {
				doc := cd.Doc
				s.Preload(&doc)
			}
		} else {
			s.Preload(demoDocuments()...)
		}
		if err := s.SelectAll(); err != nil {
			log.Fatal(err)
		}
	}

	feeds, err := buildFeeds(s, ff, *clusterWorker)
	if err != nil {
		log.Fatal(err)
	}
	if feeds != nil {
		s.AttachFeeds(feeds)
		if err := feeds.Start(); err != nil {
			log.Fatal(err)
		}
	}

	handler := s.HandlerWith(httpx.Config{
		MaxInflight:    *maxInflight,
		RetryAfter:     *retryAfter,
		RequestTimeout: *requestTimeout,
		MaxBodyBytes:   *maxBodyBytes,
		Quota:          s.QuotaMiddleware(),
	})
	srv := httpx.NewServer(*addr, handler, httpx.ServerConfig{
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: *readHeaderTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
		ShutdownGrace:     *shutdownGrace,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (open http://%s/)", *addr, displayAddr(*addr))

	// A metrics-listener failure must not hard-kill the process and
	// skip the drain: it cancels the same context a signal would, and
	// the shared shutdown path below runs either way.
	mctx, mcancel := context.WithCancel(ctx)
	defer mcancel()
	if metrics != nil {
		go func() {
			if err := <-metrics.Err(); err != nil {
				log.Printf("metrics listener failed: %v (draining)", err)
				mcancel()
			}
		}()
	}

	// The feed drain starts the moment shutdown begins — concurrently
	// with the HTTP drain, because feed sources are independent of
	// in-flight requests. /healthz flips to 503 immediately (Draining),
	// the runners stop fetching, and the queue flushes into the
	// pipeline with a final cursor+pipeline checkpoint.
	var feedsDone chan struct{}
	if feeds != nil {
		feedsDone = make(chan struct{})
		go func() {
			defer close(feedsDone)
			<-mctx.Done()
			if ferr := feeds.Close(); ferr != nil {
				log.Printf("feed close: %v", ferr)
			}
		}()
	}

	// Serve until signal or listener failure, then drain: in-flight
	// requests get shutdown-grace to finish, the feed subsystem flushes
	// and checkpoints, the pipeline closes, and the metrics listener
	// closes cleanly.
	err = httpx.Serve(mctx, srv, ln, *shutdownGrace)
	if err != nil {
		log.Printf("serve: %v", err)
	}
	if feeds != nil {
		// Serve can also return on listener failure without mctx ever
		// firing; cancel explicitly so the drain goroutine always runs.
		mcancel()
		<-feedsDone
	}
	if cerr := s.Close(); cerr != nil {
		log.Printf("pipeline close: %v", cerr)
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

func displayAddr(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "localhost" + addr
	}
	return addr
}

func day(d int) time.Time { return time.Date(2014, 7, d, 0, 0, 0, 0, time.UTC) }

// demoDocuments is the predefined small-scale example of the demo
// (paper §4.2.1), centred on the July 2014 downing of MH17 over Ukraine,
// with the Google/Yelp article of Figure 3 as the unrelated story.
func demoDocuments() []*storypivot.Document {
	return []*storypivot.Document{
		{
			Source: "nyt", URL: "http://nytimes.com/doc0.html", Published: day(30),
			Title: "Sanctions Expanded Against Russia",
			Body: "The day after the European Union and the United States announced expanded sanctions " +
				"against Russia over the conflict in Ukraine, markets reacted with caution.\n\n" +
				"Diplomats said the sanctions were a direct consequence of the downing of the Malaysian jet.",
		},
		{
			Source: "nyt", URL: "http://nytimes.com/doc1.html", Published: day(17),
			Title: "Jetliner Explodes over Ukraine",
			Body: "A Malaysia Airlines Boeing 777 with 298 people aboard exploded, crashed and burned " +
				"in a field near Donetsk.\n\nThe aircraft was flying in territory controlled by pro-Russia " +
				"separatists and officials believe it was blown out of the sky by a missile.",
		},
		{
			Source: "nyt", URL: "http://nytimes.com/doc2.html", Published: day(18),
			Title: "Evidence of Russian Links to Jet's Downing",
			Body: "Officials leading the criminal investigation into the crash of Malaysia Airlines Flight 17 " +
				"said Friday that the plane was shot down.\n\nUkraine asked the United Nations civil aviation " +
				"authority to join the international investigation.",
		},
		{
			Source: "wsj", URL: "http://online.wsj.com/doc3.html", Published: day(17),
			Title: "Passenger Jet Felled over Ukraine",
			Body: "The United States government has concluded that the passenger jet felled over Ukraine " +
				"was shot down by a surface-to-air missile.\n\nThe crash scattered debris near the " +
				"Russian border and investigators demanded access to the site.",
		},
		{
			Source: "wsj", URL: "http://online.wsj.com/doc4.html", Published: day(18),
			Title: "Google Battles Yelp over Search Results",
			Body: "Google Inc. rival Yelp Inc. says the search giant is promoting its own content at the " +
				"expense of users, as Google battles antitrust scrutiny of its search results.",
		},
		{
			Source: "wsj", URL: "http://online.wsj.com/doc5.html", Published: day(21),
			Title: "Dutch Experts Reach Crash Site",
			Body: "Investigators from the Netherlands reached the crash site in eastern Ukraine and began " +
				"recovering remains.\n\nAmsterdam observed a national day of mourning for the victims of the crash.",
		},
	}
}
