#!/usr/bin/env sh
# Builds the thread-pool and parallel-pipeline tests under sanitizers and
# runs them, so pool lifecycle bugs and shard races are caught mechanically
# rather than by luck of the scheduler.
#
# Usage: scripts/run_sanitizers.sh [thread|address|all]   (default: all)
#
# TSan covers the concurrency-bearing suites (thread pool, sharded
# sparsifier, fused sparsify->CSR pipeline, the observability layer's
# span recording + metrics registry, the run-guard's cross-thread
# cancel/poll/budget traffic, and the serve daemon); ASan+UBSan reruns
# the same suites for memory errors in the histogram/scatter/compaction
# passes and for undefined behaviour, float-to-integer cast overflow
# included. A UBSan report aborts the suite (-fno-sanitize-recover), so
# it fails the lane. The thread lane additionally replays the guarded
# isolation matchcheck properties through the fuzzer. The address lane
# additionally runs the serial bounded-augmentation matcher suites and the
# serial CSR builder (Graph::from_edges, normalize_edge_list, the edge-list
# loader, the sparse array and the graph contracts), whose sorted-input
# path reads each adjacency list in place before deciding to sort it.
set -e
cd "$(dirname "$0")/.."

mode="${1:-all}"

# gtest filters for the concurrency-bearing tests: the pool itself plus
# every parallel-builder suite (including the determinism regressions).
UTIL_FILTER='ThreadPool.*:ParallelFor.*'
SPARSIFY_FILTER='ParallelPipeline.*:ParallelSparsifier.*'
# The whole obs suite is concurrency-relevant: spans record from pool
# workers, the registry is hammered from parallel_for in the determinism
# test, and the bucket-histogram suite storms one histogram from eight
# threads while a scraper snapshots it.
OBS_FILTER='Obs*:Bucket*'
# The whole guard suite: cancel() races polling pool workers, MemCharge
# races concurrent budget charges, and ScopedGuard install/restore is an
# atomic exchange other threads observe mid-flight.
GUARD_FILTER='*'
# The whole run-context suite (DESIGN.md §14): eight concurrent guarded
# pipelines on one shared pool, ambient-slot inheritance into workers,
# cross-thread trip attribution, and per-context metrics merges.
RUN_CONTEXT_FILTER='*'
# The whole serve suite (DESIGN.md §15 + §17): session threads racing
# the cache, admission counters, cross-connection CANCEL delivery, the
# 8-client bit-identical-to-solo headline, and the resilience layer —
# dedup-window claims racing across connections, RetryingClient
# reconnects, the idle reaper, and the FaultTransport differential
# fuzz — so the retry machinery is exercised under both sanitizers.
SERVE_FILTER='*'
# The whole telemetry suite (DESIGN.md §16): the seqlock flight ring
# under a four-writer storm with a concurrent dumper, and STATS scrapes
# racing live request traffic.
SERVE_TELEMETRY_FILTER='*'
# The serial bounded-augmentation matcher (address lane only: it is
# single-threaded). Its blossom union-find compresses paths by writing
# through the version-stamped base array, and the resumable variant and
# the dynamic window matcher drive the same solver in budgeted slices.
MATCHING_FILTER='ApproxMcm*:Resumable*'
DYNAMIC_FILTER='WindowMatcher*'
# The serial CSR ingest (address lane only: it is single-threaded), on
# sorted, reversed, shuffled and duplicated input, and its death tests.
GRAPH_FILTER='Graph*:NormalizeEdgeList*:InducedSubgraph*:GraphIo*'
UTIL_SERIAL_FILTER='GraphContracts.*:SparseArray.*'

run_one() {
  san="$1"
  dir="build-${san}san"
  echo "==== ${san} sanitizer ===="
  cmake -B "$dir" -S . -DMS_SANITIZE="$san" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$dir" --target test_util test_sparsify test_obs \
    test_guard test_run_context test_serve \
    test_serve_telemetry \
    -j "$(nproc)"
  "$dir/tests/test_util" --gtest_filter="$UTIL_FILTER"
  "$dir/tests/test_sparsify" --gtest_filter="$SPARSIFY_FILTER"
  "$dir/tests/test_obs" --gtest_filter="$OBS_FILTER"
  "$dir/tests/test_guard" --gtest_filter="$GUARD_FILTER"
  "$dir/tests/test_run_context" --gtest_filter="$RUN_CONTEXT_FILTER"
  "$dir/tests/test_serve" --gtest_filter="$SERVE_FILTER"
  "$dir/tests/test_serve_telemetry" --gtest_filter="$SERVE_TELEMETRY_FILTER"
  if [ "$san" = "address" ]; then
    cmake --build "$dir" --target test_matching test_dynamic test_graph \
      -j "$(nproc)"
    "$dir/tests/test_matching" --gtest_filter="$MATCHING_FILTER"
    "$dir/tests/test_dynamic" --gtest_filter="$DYNAMIC_FILTER"
    "$dir/tests/test_graph" --gtest_filter="$GRAPH_FILTER"
    "$dir/tests/test_util" --gtest_filter="$UTIL_SERIAL_FILTER"
  fi
  if [ "$san" = "thread" ]; then
    # Seed-randomized guarded runs under TSan: concurrent_guard_isolation
    # overlaps whole guarded pipelines under distinct RunContexts on the
    # shared pool and cross-checks the survivor bit-for-bit.
    cmake --build "$dir" --target matchsparse_fuzz -j "$(nproc)"
    "$dir/tools/matchsparse_fuzz" --budget 5s --seed 1 \
      --property concurrent_guard_isolation \
      --property serve_request_isolation
    # Daemon soak under TSan: the mixed workload (clean clients, QoS
    # victims, cache churn, saboteur connections) for a trimmed window —
    # TSan's ~10x slowdown keeps plenty of interleavings in 10 wall
    # seconds. MS_SERVE_SOAK_SECONDS=30 restores the full soak.
    cmake --build "$dir" --target test_serve_soak -j "$(nproc)"
    MS_SERVE_SOAK_SECONDS="${MS_SERVE_SOAK_SECONDS:-10}" \
      "$dir/tests/test_serve_soak"
    # Chaos lane (DESIGN.md §17): seeded FaultTransports on both sides
    # of every connection with all traffic through RetryingClient. The
    # dedup window's claim/complete/abort handoffs, session reaping, and
    # mid-reply resets all race under TSan here; survivors must stay
    # bit-identical and the ledgers must drain.
    cmake --build "$dir" --target test_serve_chaos -j "$(nproc)"
    MS_SERVE_CHAOS_SECONDS="${MS_SERVE_CHAOS_SECONDS:-10}" \
      "$dir/tests/test_serve_chaos"
  fi
  echo "==== ${san} sanitizer: OK ===="
}

case "$mode" in
  thread) run_one thread ;;
  address) run_one address ;;
  all)
    run_one thread
    run_one address
    ;;
  *)
    echo "usage: $0 [thread|address|all]" >&2
    exit 2
    ;;
esac
