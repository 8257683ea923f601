GO ?= go
FUZZTIME ?= 30s

.PHONY: all build vet test race fuzz bench ci feed-demo cluster-demo clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector. The concurrency
# tests (internal/stream/concurrent_test.go, internal/obs,
# internal/identify/determinism_test.go) are written to put real
# contention on the engine, registry, and parallel runner, so this is
# the tier that catches lock-discipline regressions.
race:
	$(GO) test -race ./...

# fuzz runs each fuzz target for FUZZTIME (they also run as plain unit
# tests over their seed corpora during `make test`).
fuzz:
	$(GO) test ./internal/event/ -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/event/ -run '^$$' -fuzz FuzzDecodeCorrupt -fuzztime $(FUZZTIME)
	$(GO) test ./internal/text/ -run '^$$' -fuzz FuzzTokenize -fuzztime $(FUZZTIME)
	$(GO) test ./internal/text/ -run '^$$' -fuzz FuzzSentences -fuzztime $(FUZZTIME)

# bench runs every Go benchmark once: the regenerators of the paper's
# figures and EXPERIMENTS.md (bench_test.go), so they cannot rot. Perf
# claims are stated against bench/ (BENCHMARK.json); ci.sh gates its
# -smoke counts against scripts/bench-smoke.baseline.json.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

ci:
	./scripts/ci.sh

# feed-demo runs the server with replayed continuous feeds and an
# injected flaky source, tailing /api/feeds so the backoff / breaker /
# recovery transitions are visible, then demonstrates the graceful
# drain (cursors + checkpoint persisted on SIGTERM).
feed-demo:
	./scripts/feed_demo.sh

# cluster-demo starts 1 router + 3 worker shards, ingests through the
# router (consistent-hash source routing), runs merged queries, then
# kills a worker to show degraded (partial, never 5xx) serving.
cluster-demo:
	./scripts/cluster_demo.sh

clean:
	$(GO) clean ./...
