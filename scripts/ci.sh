#!/bin/sh
# CI gate: build, vet, gofmt, the unused-function check, unit tests, the
# full suite once under the race detector with the named gate tests checked
# off against that pass, then bench/'s four workloads at -smoke, whose
# repeatable numbers are gated against scripts/bench-smoke.baseline.json,
# and a one-iteration run of the Figure-7 E1 benchmarks (bit-rot only).
# Fails on the first broken step. Run from the repo root (the script
# cd's there itself so it also works from hooks).
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# Formatting: gofmt has nothing to change in any Go file of the checkout
# (hidden directories such as the bench's build cache excluded).
echo "==> gofmt -l"
unformatted=$(find . -name '*.go' -not -path './.*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
  echo "ci: gofmt would reformat these files:" >&2
  echo "$unformatted" >&2
  exit 1
fi

# Replaced code must not linger: every package-level function under
# internal/ is used by some non-test file or is on the check's allowlist
# with a reason.
echo "==> go run ./scripts/unusedfuncs"
go run ./scripts/unusedfuncs

echo "==> go test ./..."
go test ./...

# The one race pass. Every expensive suite runs exactly once, here; the
# gates below do not run anything again, they read this pass's event log
# and fail unless each test they name ran in it and passed (-count=1: a
# cached result is not a run; a skipped or deleted test is not a pass).
echo "==> go test -race -count=1 -json ./..."
log="${TMPDIR:-/tmp}/storypivot-ci-race.$$.json"
if ! go test -race -count=1 -json ./... >"$log"; then
  echo "ci: the race pass failed; these tests or packages did (full event log: $log):" >&2
  grep '"Action":"fail"' "$log" | sed 's/.*"Package":"\([^"]*\)"\(,"Test":"\([^"]*\)"\)\{0,1\}.*/  \1 \3/' >&2
  # The output of the failing packages, as go test would have shown it
  # (JSON string escapes left as they are).
  for pkg in $(sed -n 's/.*"Action":"fail","Package":"\([^"]*\)","Elapsed".*/\1/p' "$log"); do
    grep "\"Action\":\"output\",\"Package\":\"$pkg\"" "$log" |
      sed 's/.*"Output":"\(.*\)"}$/\1/; s/\\n$//; s/\\t/\t/g; s/\\"/"/g' | grep -v '^=== \|^--- PASS\|^PASS$' >&2
  done
  exit 1
fi
trap 'rm -f "$log"' EXIT
sed -n 's/.*"Action":"pass","Package":"\([^"]*\)","Elapsed":\([0-9.]*\).*/ok  \1 \2s/p' "$log"

missing=0
# gate TITLE NAME...: every NAME ran and passed in the race pass. A NAME
# is a top-level test (in whichever package holds it), a prefix of test
# names ending in '*' (at least one such test), or a package directory
# ending in '/' (the package passed as a whole).
gate() {
  echo "==> gate (read from the race pass): $1"
  shift
  for name in "$@"; do
    case "$name" in
    */) pat="\"Action\":\"pass\",\"Package\":\"repro/${name%/}\",\"Elapsed\"" ;;
    *\*) pat="\"Action\":\"pass\",\"Package\":\"[^\"]*\",\"Test\":\"${name%\*}[^\"/]*\"" ;;
    *) pat="\"Action\":\"pass\",\"Package\":\"[^\"]*\",\"Test\":\"$name\"" ;;
    esac
    if ! grep -q "$pat" "$log"; then
      echo "ci: gate test $name did not run and pass under -race" >&2
      missing=1
    fi
  done
}

# Serving-layer resilience gate: the fault-injection suites must prove
# shutdown drains in-flight requests, overload sheds with 429, panics
# are contained, and reads are not serialized behind rebuilds — all
# under the race detector (ROADMAP's bar for concurrency-touching PRs).
gate "fault injection (httpx/server/faults)" \
  TestShutdownDrainsInflight TestShutdownGraceExpiryForcesClose TestRealSIGTERMDrains \
  TestOverloadShedsUnderRealLoad TestPanicContainedUnderRealServer \
  TestReadsNotSerializedBehindRebuild TestConcurrentReadsDuringSelectChurn \
  TestHandlerPanicContained internal/faults/

# Feed resilience gate: the continuous-ingest fault-injection suite
# must prove, under the race detector, that a flapping source recovers
# via backoff, the breaker quarantines and re-admits via half-open
# probes, malformed records land in the DLQ without poisoning their
# batch, cursors resume after restart with zero duplicates, and a
# mid-burst drain loses nothing it acknowledged. Each source reaches the
# sink one record at a time in fetch order, so a source fed through the
# manager gets the stories of in-order ingest on every run and again
# when its store's log is replayed; an NDJSON endpoint that ignores the
# limit still yields batches of at most the limit. The breaker and the
# backoff themselves live in internal/retry, which passes whole. A
# snippet the engine refuses for a source-tag collision never reaches the
# store, so the store still reopens, by restore and by replay.
gate "feed fault injection (feed + checkpoint restore)" \
  internal/retry/ TestSourceCollisionLeavesStoreReopenable TestFeedFlapAndRecover TestFeedBreakerLifecycle TestFeedDLQCaptureNoPoisoning \
  TestFeedCursorResumeNoDuplicates TestFeedDrainMidBurstNoAcknowledgedLoss \
  TestFeedFetchTimeoutRecovers TestFeedFetcherPanicContained TestFeedIngestsInFetchOrder \
  TestFeedMatchesOrderedIngest TestHTTPFetcherHonoursLimit \
  TestFeedCheckpointRestoreUnderIngest TestFeedsEndpointAndHealthz TestHealthzWithoutFeeds

# Cache/quota gate: the differential coherence oracles (pipeline-layer
# and HTTP-layer) must prove zero stale responses across seeds with
# refinement on and mid-stream source removal, the symbols each index
# publish stamps must equal what the fingerprint invalidator the version
# walk replaced would have changed, a stamp must break on every publish
# delta case (a term interned only later and another index included), a
# rebuild that overtakes a cache miss must never leave a stale hit, and
# the hammer must survive concurrent query/ingest/invalidation/sweep/
# admin-update traffic under the race detector. The render-once slots a miss splices
# must encode byte for byte as the struct views they replaced, across
# ingest rounds that orphan old slots and on a tiered pipeline whose
# hydrated snippets stay unmemoized; the worker side of the slots is
# covered by TestClusterDifferential and the tier side by
# TestTieredServerDifferential (both gated below). The cached pages come
# from the envelope writer, which splices those slots: its search,
# by-entity and timeline bodies must equal the struct oracle's on empty,
# deep, scored and tiered pages, every body a real handler stores must
# have no spare capacity (the cache keeps the slice it is handed), its
# floats must equal json.Marshal's over random bit patterns, and a NaN or
# infinite score must get the encoder's 500. The pooled encoder the other
# bodies come from must match a fresh encoder byte for byte, return
# copies nothing of the pool aliases, leave no residue after a failed
# encode and hold under eight concurrent encoders; the responses that
# bypassed it (healthz, the stale-epoch 409, the quota 429) now go
# through it.
gate "cache coherence + quota" \
  TestCacheCoherenceDifferential TestHTTPCacheCoherence TestStampsMatchFingerprintOracle TestCacheQuotaIngestRace \
  'TestStamp*' TestRebuildDuringMissServesNoStaleHit \
  TestFragmentRenderingMatchesStructOracle TestPageWriterMatchesStructOracle TestCachedPageBodiesAreExactSize \
  TestAppendFloatMatchesEncoder TestEncodePageRefusesNonFiniteScores \
  TestPooledEncodeMatchesFreshEncoder TestPooledEncodeDoesNotAlias TestPooledEncodeFailureLeavesNoResidue \
  TestPooledEncodeConcurrent TestBareWritersGoThroughWriteBody \
  TestQuota429VsGate429 TestQuotaAdminFlow internal/qcache/ internal/quota/

# Query-index gate: indexed queries must return the scan oracle's
# integrated stories, pointer for pointer, across seeds with refinement on
# and a mid-stream source removal; the index's version walk must keep the
# per-member Gen diff's entries, slots, stats and counters after every
# publish; after every publish the index must hold exactly the postings of
# an index built from that result alone, with no empty list or segment
# left (a publish deletes what the versions it replaces had posted, so
# there is nothing to sweep); queries must survive ingest and a source
# removal under the race detector. The allocation pins hold in the plain
# test step; here the queries run.
gate "query index" \
  TestQueryDifferential TestQueryIngestRace TestQuerySteadyStateAllocs TestPublishMatchesGenDiff \
  TestPublishMatchesRebuild internal/index/

# Cluster gate: the scatter-gather layer must prove, under the race
# detector, that the merge agrees with a full sort, the ring is
# deterministic/balanced/pinnable, a sharded deployment answers
# byte-identically to a single node across three seeds (including
# paged windows and a mid-stream source removal on one shard), a dead
# worker degrades to 200 + "partial": true (never 5xx) with quorum
# health semantics, and routed ingest lands on the ring owner. The merge
# splices the workers' result bytes: the shard-page parser must agree
# with decoding the page (and reject what decoding rejects), the page
# writer must lay the envelope out as the encoder does, the router's and
# the worker's scored pages alike, the timeline must
# merge by (instant, id), and a ranked page whose scores do not pair with
# its results must count as a failed shard.
gate "cluster scatter-gather" \
  'TestMergeRanked*' 'TestRing*' TestClusterDifferential TestClusterDegradedServing \
  TestClusterIngestRouting TestClusterMembersReconfigure \
  TestEmptyResultsSerialiseAsArray TestStoriesByEntityEndpoint \
  TestParsePageMatchesDecoder FuzzParsePage TestResultKeysMatchDecoder TestWritePageMatchesEncoder \
  TestWritePageMatchesEncoder/scored \
  TestTimelineMergeOrdersByInstant TestRankedScoreCountMismatchIsPartial

# Retirement gate: the lifecycle differential must prove byte-identical
# active-window responses across seeds (refinement on, mid-stream source
# removal), reactivation must restore the original StoryID, a
# kill-during-retire restart must reconcile the archive against the
# checkpoint, and the retire/reactivate/ingest/rebase interleaving must
# survive the race detector. A story that a refused redelivery
# reactivated must still be served after the next settle. Archive
# records point into the store: retirement needs WithStorage, a store
# that cannot sync detaches nothing, an older archive is cut at open
# and replayed from the store with a warning, New's error paths close
# what they opened, and a tiered pipeline's retire → reactivate round
# trip answers byte for byte as an untiered one. Archive, then detach,
# run under the one engine lock: after every retirement pass the
# archive's index must equal the set of stories the engine detached.
gate "story retirement" \
  TestRetireDifferential 'TestRetireReactivation*' TestRejectedIngestKeepsReactivatedVisible \
  TestArchiveIndexMatchesDetached \
  TestRetireBoundedResident TestRetireIngestRace TestRetireRequiresStorage \
  TestRecoveryKillDuringRetire TestRecoveryArchiveReconcile internal/retire/ \
  TestRecoveryArchiveOlderVersion TestNewClosesWhatItOpenedOnError \
  TestRetireStoreSyncFailureDetachesNothing TestTieredRetirementRoundTrip \
  'TestArchive*' 'TestWindowEndpoint*'

# Storage-log gate: the framed log under the event store, DLQ, archive
# and chunks must keep exactly the complete frames before a crash at
# every byte offset and refuse a record recovery would discard; a flat
# segment-log directory must migrate into chunks once, crash-safe, with
# nothing lost or duplicated; sparse (out-of-order) IDs must be found in
# every chunk and tier; no sealed chunk keeps a heap copy: each reads
# from a mapping of its own file, and a reopen allocates under a tenth of
# the corpus; a sealed chunk whose files are gone is reported lost with
# the rows its manifest entry held; the whole storage package passes;
# the chunk tier suite
# (demotion/promotion, crash-point recovery at both the storage and
# pipeline layers, the manifest reconcile, and the ingest/query/cold-read
# hammer) must pass under the race detector, and the 3-seed
# tiered-vs-unbudgeted server differential must stay byte-identical on
# every endpoint. The paged envelope boundaries ride along: they share
# the pagination code the tiers must not perturb.
gate "storage logs + tiers" \
  TestSegLogCrashAtEveryOffset TestSegLogRejectsOversizedRecord TestOpenMigratesFlatSegments \
  TestTierSparseIDs TestTierSealedChunksLiveInTheirFiles TestTierReopenAllocatesNoChunkBytes internal/storage/ \
  TestTierLostChunkReported \
  'TestTier*' 'TestRecoveryTiered*' TestTieredIngestQueryRace \
  TestTieredServerDifferential TestPagedEnvelopeBoundaries \
  TestClusterPagedEnvelopeEdgeCases 'TestDLQ*' 'TestArchiveTornFrame*' 'TestArchiveReset*'

# Self-healing cluster gate: the chaos suite must prove, under the race
# detector, that killing one worker of three mid ingest-and-query-replay
# keeps every scatter query at 200 (partial, never 5xx) with bounded
# p99, quarantines the dead member off passive signals, fails its feed
# runner over to an interim owner at the last durable cursor, readmits
# the restarted worker via a half-open probe with its WAL restored past
# the cursor file, rebalances the runner home, and ends with zero
# acknowledged-record loss and zero duplicates. The hedging contract,
# the health state machine + per-member metrics (on internal/retry's
# breaker, which passes whole), the 503's Retry-After following the
# owner's cooldown, the failover placement walk, and the worker-side
# assignment lifecycle ride along.
gate "self-healing cluster chaos" \
  internal/retry/ TestClusterChaosFailover 'TestClientHedging*' 'TestHealthMonitorStateMachine*' \
  TestRingOwnerIndexAmong 'TestAssignLifecycle*' 'TestAssignValidation*' \
  TestIngestRetryAfterFollowsCooldown

# Settle exactness gate: Refine must return the corrections of the
# literal support-first loop, the aligner's candidate graph must equal
# the brute-force one under interleaved Upsert/Remove/Result, aligners
# fed the same rounds in different orders must agree after every round,
# the aligner must equal a fresh one built from its live stories at the
# same frozen epoch (the engine's Gen-skip rests on it) and its incremental
# Result must equal the whole-corpus pass after every operation, regroup
# nothing over an unchanged corpus and never rewrite a published result, a
# persistent Refiner must return a fresh one's corrections after every edit
# and score nothing over an unchanged result, and identically fed
# refinement-on pipelines must agree at every settle. The dirty set is
# exact: an identifier's Drain must name every story whose presence or Gen
# changed, and after every settle the aligner must hold each live story at
# its Gen and nothing else, through repair, refinement, retirement, source
# removal racing ingest, and checkpoint restore; that is what lets a
# retirement detach every member it archived without re-checking it
# under the one engine lock. The entity statistics must reproduce the IDF
# weight bit for bit, an idle Result must allocate the same at any corpus
# size, and a source's statistics rows must be readable while it
# ingests. The settle's allocation pins: the index re-sorts dirty
# timeline segments with no allocation, an integrated story's Snippets
# allocates once and its construction does not grow with its snippets,
# and a warm Refiner pass allocates the same at any corpus size. The
# engine refuses exactly the snippets its identifiers already assigned. A
# settle scores only what an edit can change: the other sources' snippets
# score nothing when one member of a multi-source story grows, an epoch
# rescores exactly the candidate pairs that share a counted entity, and an
# idle pass over stories without entities regroups nothing.
gate "settle exactness (align + engine digest)" \
  TestRefineMatchesReference TestAlignerStructureQuick TestAlignerUpsertOrderIndependent \
  TestAlignerPureFunctionQuick TestResultRegroupsOnlyWhatChanged TestRefinerMatchesOneShotQuick \
  TestRefinerScoresOnlyWhatChanged TestSettleDigestDeterministic TestIdentifierDrainMatchesGenDiff \
  TestEngineAlignerHoldsLiveStories TestEngineConcurrentIngestWithSourceChurn TestCheckpointRoundTrip \
  TestEntityIDFMatchesReference TestIdleResultAllocsIndependentOfCorpus TestEngineSourceStatsConcurrentWithIngest \
  TestFinishTimelinesAllocatesNothing TestIntegratedSnippetsAllocatesOnce \
  TestNewIntegratedStoryAllocsIndependentOfSnippets TestWarmRefinerAllocsIndependentOfCorpus \
  TestEngineRejectsExactlyRedeliveries TestEpochRescoresOnlyEntitySharingPairs \
  TestIdleResultWithoutEntitiesRegroupsNothing

# Settle-on-write gate: reads never settle and never wait on the engine
# mutex. A POST parked mid-settle must leave every query route, the
# unindexed ones and /api/stats, /api/trending, /api/sources and
# /api/stories included, answering with the pre-write state, and the same
# reads must show the write after the ack; every server write path (POST, select, remove-document, a feed
# batch, a feed-tenure source removal, New over a restored store) must
# return with the write visible and nothing left to align, and N POSTs
# under concurrent reads must run exactly N alignment passes. The cache
# hammer, the HTTP cache-coherence oracle and the cluster differential,
# whose harnesses settle once per ingested prefix, cover the read side.
gate "settle on write (reads never settle)" \
  TestReadsDoNotWaitForSettle TestWritePathsSettle TestPostsSettleOnceEach \
  TestCacheQuotaIngestRace TestHTTPCacheCoherence TestClusterDifferential

if [ "$missing" -ne 0 ]; then
  echo "ci: a gate names a test the race pass did not run and pass" >&2
  exit 1
fi

# Bench smoke gate: each workload BENCHMARK.json declares, run by bench/
# at -smoke, must pass its output checks and repeat the committed baseline
# on the numbers that repeat: the input digest and f1_integrated exactly,
# no failed op, allocs_per_op within a factor of 1.05 and heap_mb within
# 1.10 either way (5 repeats per workload spread up to 1.9 % and 0.4 %).
# Time metrics are not gated; time claims rest on paired
# `bench -repeat N -against` runs. A change that moves a gated number on
# purpose rewrites the baseline from fresh runs and says why in CHANGES.md.
baseline=scripts/bench-smoke.baseline.json
seed=$(jq -r .seed "$baseline")
echo "==> bench smoke gate (bench -smoke -seed $seed against $baseline)"
smokedir=$(mktemp -d)
trap 'rm -rf "$log" "$smokedir"' EXIT
go build -o "$smokedir/bin/bench" ./bench
smokefail=0
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
  if ! base=$(jq -e --arg w "$w" '.workloads[$w]' "$baseline"); then
    echo "ci: bench smoke $w: $baseline has no entry for it" >&2
    smokefail=1
    continue
  fi
  if ! out=$("$smokedir/bin/bench" -workload "$w" -smoke -seed "$seed" 2>"$smokedir/$w.log"); then
    echo "ci: bench smoke $w: the run failed:" >&2
    echo "$out" | cat "$smokedir/$w.log" - >&2
    smokefail=1
    continue
  fi
  digest=$(echo "$out" | sed -n 's/.* input_digest=\([0-9a-f]*\)$/\1/p')
  verdict=$(echo "$out" | tail -n 1 | jq -r --arg w "$w" --arg digest "$digest" \
    --argjson base "$base" '
    . as $r
    | def within($m; $tol): $r.metrics[$m].value as $o
        | ($o / $base[$m]) as $q
        | if (if $q < 1 then 1 / $q else $q end) > 1 + $tol
          then "\($m): baseline \($base[$m]), observed \($o) (allowed ±\($tol * 100) %)" else empty end;
    [ (if $digest != $base.input_digest
       then "input_digest: baseline \($base.input_digest), observed \($digest)" else empty end),
      (if $r.failed != 0 then "failed: baseline 0, observed \($r.failed)" else empty end),
      (if $r.metrics.f1_integrated.value != $base.f1_integrated
       then "f1_integrated: baseline \($base.f1_integrated), observed \($r.metrics.f1_integrated.value) (must be exact)" else empty end),
      within("allocs_per_op"; 0.05),
      within("heap_mb"; 0.10) ]
    | if length == 0
      then "ok  \($w)  input_digest=\($digest) f1_integrated=\($r.metrics.f1_integrated.value) allocs_per_op=\($r.metrics.allocs_per_op.value) heap_mb=\($r.metrics.heap_mb.value)"
      else .[] | "ci: bench smoke \($w) \(.)" end')
  case "$verdict" in
  ok*) echo "$verdict" ;;
  *) echo "$verdict" >&2; smokefail=1 ;;
  esac
done
if [ "$smokefail" -ne 0 ]; then
  echo "ci: a bench smoke run left its baseline" >&2
  exit 1
fi

echo "==> E1 smoke (scripts/bench.sh --smoke)"
./scripts/bench.sh --smoke

echo "==> ci ok"
