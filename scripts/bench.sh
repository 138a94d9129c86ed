#!/usr/bin/env bash
# Runs the benchmark set and records the results:
#   BENCH_delta.json     — delta-evaluation benchmarks (per-candidate Delta
#                          vs Apply, neighborhood generation, one searcher
#                          iteration on a 400-customer instance)
#   BENCH_telemetry.json — disabled- vs enabled-telemetry searcher
#                          iteration and the relative overhead
#   BENCH_trace.json     — disabled- vs enabled-tracing searcher iteration
#                          (a live span over the batched sweep path) and
#                          the relative overhead (<=3% target)
#   BENCH_service.json   — solver-service load generator: p50/p99 submit-to-
#                          first-point latency and jobs/min with the queue
#                          saturated (scripts/loadgen)
#   BENCH_checkpoint.json — full sequential run with durable checkpointing
#                          off vs on at the service's default snapshot
#                          interval, and the relative overhead (<2% target)
#   BENCH_granular.json  — granular vs full searcher iteration on the
#                          400-customer instance (k=20, neighborhood 200),
#                          the parallel-eval variant, and the raw candidate
#                          sweeps; the tracked target is <=150µs and <=10
#                          allocs per granular iteration
#   BENCH_dynamic.json   — mutation-replay benchmarks: splice+repair
#                          latency (p50/p99; tracked target p99 < 10ms for
#                          a single mutation on a 400-customer instance),
#                          neighbor lists rebuilt vs patched, and the
#                          iterations a warm restart loses (0 by the
#                          halt-barrier protocol)
#   BENCH_history.jsonl  — timestamped archive of every prior BENCH_*.json,
#                          appended before each file is overwritten
# After writing, scripts/benchgate diffs BENCH_delta.json and
# BENCH_granular.json against their latest BENCH_history.jsonl entries and
# fails the run on a >15% ns/op or allocs/op regression.
# BENCHTIME overrides the per-benchmark time budget (default 1s).
# LOADGEN_JOBS overrides the load-generator job count (default 24).
set -euo pipefail
cd "$(dirname "$0")/.."

HISTORY=BENCH_history.jsonl
STAMP=$(date -u +%Y-%m-%dT%H:%M:%SZ)

# archive FILE: append its current content to the history log so a fresh
# run never silently destroys earlier numbers.
archive() {
  local f=$1
  [ -s "$f" ] || return 0
  printf '{"archived_at": "%s", "file": "%s", "results": %s}\n' \
    "$STAMP" "$f" "$(tr -s ' \n' ' ' < "$f")" >> "$HISTORY"
}

TMP=$(mktemp)
TMPTRACE=$(mktemp)
trap 'rm -f "$TMP" "$TMPTRACE"' EXIT

go test -run '^$' -bench 'BenchmarkDeltaVsApply|BenchmarkCandidates' \
  -benchmem -benchtime "${BENCHTIME:-1s}" ./internal/operators/ | tee -a "$TMP"
go test -run '^$' -bench 'BenchmarkSearcherIteration|BenchmarkRunCheckpoint' \
  -benchmem -benchtime "${BENCHTIME:-1s}" ./internal/core/ | tee -a "$TMP"

archive BENCH_delta.json
awk 'BEGIN { print "[" }
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; allocs = ""; bytes = ""
    for (i = 2; i <= NF; i++) {
      if ($i == "ns/op") ns = $(i-1)
      if ($i == "B/op") bytes = $(i-1)
      if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, ns, bytes, allocs
  }
  END { print "\n]" }' "$TMP" > BENCH_delta.json
echo "wrote BENCH_delta.json"

# The telemetry overhead report: the searcher iteration with the layer
# disabled (nil — the production default) against every instrument
# recording. The enabled overhead is informational; the disabled pair is
# the one gated (<2% vs the recorded baseline, zero extra allocations —
# see TestSearcherIterationTelemetryAllocs).
archive BENCH_telemetry.json
awk '
  /^BenchmarkSearcherIteration-|^BenchmarkSearcherIteration / {
    for (i = 2; i <= NF; i++) { if ($i == "ns/op") dns = $(i-1); if ($i == "allocs/op") da = $(i-1) }
  }
  /^BenchmarkSearcherIterationTelemetry/ {
    for (i = 2; i <= NF; i++) { if ($i == "ns/op") ens = $(i-1); if ($i == "allocs/op") ea = $(i-1) }
  }
  END {
    if (dns == "" || ens == "") { print "missing searcher iteration benchmarks" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkSearcherIteration (R1, N=400)\",\n"
    printf "  \"disabled\": {\"ns_per_op\": %s, \"allocs_per_op\": %s},\n", dns, da
    printf "  \"enabled\": {\"ns_per_op\": %s, \"allocs_per_op\": %s},\n", ens, ea
    printf "  \"enabled_overhead_pct\": %.2f,\n", (ens - dns) / dns * 100
    printf "  \"enabled_extra_allocs\": %d\n", ea - da
    printf "}\n"
  }' "$TMP" > BENCH_telemetry.json
echo "wrote BENCH_telemetry.json"

# The trace overhead report: the searcher iteration with tracing disabled
# (nil trace — the production default) against the same iteration running
# under a live phase span, the configuration every in-job sweep batch sees.
# The two sit within single-run jitter of each other, so this pair is run
# TRACECOUNT times (default 5) and the medians are compared. The tracked
# target is <=3% enabled overhead; the disabled path is additionally gated
# to zero extra allocations by TestSearcherIterationTraceAllocs
# (make allocs).
go test -run '^$' -bench '^BenchmarkSearcherIteration$|^BenchmarkSearcherIterationTrace$' \
  -benchmem -benchtime "${BENCHTIME:-1s}" -count "${TRACECOUNT:-5}" ./internal/core/ | tee "$TMPTRACE"
archive BENCH_trace.json
awk '
  function median(v, n,   i) {
    # insertion sort; n is tiny
    for (i = 2; i <= n; i++) {
      x = v[i]; j = i - 1
      while (j > 0 && v[j] > x) { v[j+1] = v[j]; j-- }
      v[j+1] = x
    }
    return (n % 2) ? v[(n+1)/2] : (v[n/2] + v[n/2+1]) / 2
  }
  /^BenchmarkSearcherIteration-|^BenchmarkSearcherIteration / {
    for (i = 2; i <= NF; i++) { if ($i == "ns/op") dns[++dn] = $(i-1); if ($i == "allocs/op") da = $(i-1) }
  }
  /^BenchmarkSearcherIterationTrace-|^BenchmarkSearcherIterationTrace / {
    for (i = 2; i <= NF; i++) { if ($i == "ns/op") ens[++en] = $(i-1); if ($i == "allocs/op") ea = $(i-1) }
  }
  END {
    if (dn == 0 || en == 0) { print "missing searcher trace benchmarks" > "/dev/stderr"; exit 1 }
    dmed = median(dns, dn); emed = median(ens, en)
    pct = (emed - dmed) / dmed * 100
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkSearcherIteration (R1, N=400), median of %d\",\n", dn
    printf "  \"disabled\": {\"ns_per_op\": %s, \"allocs_per_op\": %s},\n", dmed, da
    printf "  \"enabled\": {\"ns_per_op\": %s, \"allocs_per_op\": %s},\n", emed, ea
    printf "  \"enabled_overhead_pct\": %.2f,\n", pct
    printf "  \"target_max_overhead_pct\": 3,\n"
    printf "  \"within_target\": %s\n", (pct <= 3) ? "true" : "false"
    printf "}\n"
  }' "$TMPTRACE" > BENCH_trace.json
echo "wrote BENCH_trace.json"

# The checkpoint overhead report: a complete sequential run with durable
# checkpointing off against the same run snapshotting at the service's
# default interval (capture + encode + checksum; the disk write is the
# service's, not the core's). The overhead target is <2%.
archive BENCH_checkpoint.json
awk '
  /^BenchmarkRunCheckpointOff/ {
    for (i = 2; i <= NF; i++) { if ($i == "ns/op") offns = $(i-1); if ($i == "allocs/op") offa = $(i-1) }
  }
  /^BenchmarkRunCheckpointOn/ {
    for (i = 2; i <= NF; i++) { if ($i == "ns/op") onns = $(i-1); if ($i == "allocs/op") ona = $(i-1) }
  }
  END {
    if (offns == "" || onns == "") { print "missing checkpoint benchmarks" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkRunCheckpoint (sequential, R1, N=100, 100k evals)\",\n"
    printf "  \"off\": {\"ns_per_op\": %s, \"allocs_per_op\": %s},\n", offns, offa
    printf "  \"on\": {\"ns_per_op\": %s, \"allocs_per_op\": %s},\n", onns, ona
    printf "  \"checkpoint_every\": 500,\n"
    printf "  \"overhead_pct\": %.2f\n", (onns - offns) / offns * 100
    printf "}\n"
  }' "$TMP" > BENCH_checkpoint.json
echo "wrote BENCH_checkpoint.json"

# The granular engine report: the headline granular searcher iteration
# against the full-neighborhood baseline and the opt-in parallel evaluator,
# plus the raw 400-customer candidate sweeps (reused-buffer, both modes).
archive BENCH_granular.json
awk '
  /^BenchmarkSearcherIteration-|^BenchmarkSearcherIteration / {
    for (i = 2; i <= NF; i++) { if ($i == "ns/op") gns = $(i-1); if ($i == "allocs/op") ga = $(i-1) }
  }
  /^BenchmarkSearcherIterationFull/ {
    for (i = 2; i <= NF; i++) { if ($i == "ns/op") fns = $(i-1); if ($i == "allocs/op") fa = $(i-1) }
  }
  /^BenchmarkSearcherIterationParallel/ {
    for (i = 2; i <= NF; i++) { if ($i == "ns/op") pns = $(i-1); if ($i == "allocs/op") pa = $(i-1) }
  }
  /^BenchmarkCandidatesInto400/ {
    for (i = 2; i <= NF; i++) { if ($i == "ns/op") cfns = $(i-1); if ($i == "allocs/op") cfa = $(i-1) }
  }
  /^BenchmarkCandidatesGranular400/ {
    for (i = 2; i <= NF; i++) { if ($i == "ns/op") cgns = $(i-1); if ($i == "allocs/op") cga = $(i-1) }
  }
  END {
    if (gns == "" || fns == "") { print "missing granular/full searcher benchmarks" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkSearcherIteration (R1, N=400, neighborhood 200, k=20)\",\n"
    printf "  \"granular\": {\"ns_per_op\": %s, \"allocs_per_op\": %s},\n", gns, ga
    printf "  \"full\": {\"ns_per_op\": %s, \"allocs_per_op\": %s},\n", fns, fa
    if (pns != "")
      printf "  \"parallel_eval4\": {\"ns_per_op\": %s, \"allocs_per_op\": %s},\n", pns, pa
    if (cfns != "")
      printf "  \"sweep_full_400\": {\"ns_per_op\": %s, \"allocs_per_op\": %s},\n", cfns, cfa
    if (cgns != "")
      printf "  \"sweep_granular_400\": {\"ns_per_op\": %s, \"allocs_per_op\": %s},\n", cgns, cga
    printf "  \"speedup\": %.2f,\n", fns / gns
    printf "  \"target\": {\"max_ns_per_op\": 150000, \"max_allocs_per_op\": 10},\n"
    printf "  \"within_target\": %s\n", (gns + 0 <= 150000 && ga + 0 <= 10) ? "true" : "false"
    printf "}\n"
  }' "$TMP" > BENCH_granular.json
echo "wrote BENCH_granular.json"

# The dynamic subsystem report: splice+repair of one cancel_customer and
# of the four-op batch against a warmed 400-customer checkpoint, plus a
# complete live mutated run (halt, splice, warm restart). The tracked
# target is a single-mutation p99 under 10ms; lost_iterations measures the
# search work a warm restart discards, which the halt-barrier protocol
# pins to 0.
TMPDYN=$(mktemp)
trap 'rm -f "$TMP" "$TMPTRACE" "$TMPDYN"' EXIT
go test -run '^$' -bench 'BenchmarkSpliceRepair|BenchmarkMutationReplay' \
  -benchtime "${BENCHTIME:-1s}" ./internal/dynamic/ | tee "$TMPDYN"
archive BENCH_dynamic.json
awk '
  function grab(   i) {
    for (i = 2; i <= NF; i++) {
      if ($i == "ns/op") ns = $(i-1)
      if ($i == "p50-ns") p50 = $(i-1)
      if ($i == "p99-ns") p99 = $(i-1)
      if ($i == "lists-rebuilt") reb = $(i-1)
      if ($i == "lost-iters") lost = $(i-1)
    }
  }
  /^BenchmarkSpliceRepairCancel400/ { grab(); cns = ns; c50 = p50; c99 = p99; creb = reb }
  /^BenchmarkSpliceRepairBatch400/  { grab(); bns = ns; b50 = p50; b99 = p99; breb = reb }
  /^BenchmarkMutationReplay400/     { grab(); rns = ns; rlost = lost }
  END {
    if (cns == "" || rns == "") { print "missing dynamic benchmarks" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"benchmark\": \"splice+repair on a warmed checkpoint (R1, N=400, k=20)\",\n"
    printf "  \"cancel_single\": {\"ns_per_op\": %s, \"p50_ns\": %s, \"p99_ns\": %s, \"lists_rebuilt\": %s},\n", cns, c50, c99, creb
    printf "  \"batch4\": {\"ns_per_op\": %s, \"p50_ns\": %s, \"p99_ns\": %s, \"lists_rebuilt\": %s},\n", bns, b50, b99, breb
    printf "  \"live_replay\": {\"ns_per_op\": %s, \"lost_iterations\": %s},\n", rns, rlost
    printf "  \"target\": {\"max_single_p99_ns\": 10000000, \"max_lost_iterations\": 0},\n"
    printf "  \"within_target\": %s\n", (c99 + 0 < 10000000 && rlost + 0 == 0) ? "true" : "false"
    printf "}\n"
  }' "$TMPDYN" > BENCH_dynamic.json
echo "wrote BENCH_dynamic.json"

# The service load report: an in-process daemon on a 2-worker pool, driven
# by more submitters than workers+queue so the queue saturates and 429
# backpressure engages.
archive BENCH_service.json
go run ./scripts/loadgen -jobs "${LOADGEN_JOBS:-24}" -workers 2 -queue 4 -concurrency 8 \
  > BENCH_service.json
echo "wrote BENCH_service.json"

# Regression gate: fail the run when this run regressed >15% against the
# numbers archived from the previous one.
go run ./scripts/benchgate BENCH_delta.json BENCH_granular.json
