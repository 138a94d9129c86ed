# Developer verify loop. `make verify` is the full gate a change must pass:
# formatting, build, vet, the complete test suite, the race detector over
# the concurrency-heavy packages (the search core and the process
# simulator), and the zero-allocation assertion on the disabled-telemetry
# hot path.

GO ?= go

.PHONY: fmt build vet test race allocs bench-smoke metrics-lint service-e2e recover-e2e dynamic-e2e tenant-e2e chaos cluster-e2e flaky-guard fuzz-smoke bench profile verify

fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
	  echo "gofmt required on:"; echo "$$files"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/deme/... ./internal/cluster/...
	$(GO) test -race -count 1 -run 'TestShareSSEFanoutRace|TestShareIngressConcurrentSubscribers' ./internal/service/

# allocs asserts the observability overhead contract: disabled-path
# telemetry and tracing calls allocate nothing, and a full searcher
# iteration allocates no more with the instruments (or a live trace span)
# than with the layers off.
allocs:
	$(GO) test -run 'TestDisabledZeroAlloc|TestEnabledZeroAlloc' -count 1 -v ./internal/telemetry/
	$(GO) test -run 'TestDisabledZeroAlloc' -count 1 -v ./internal/trace/
	$(GO) test -run 'TestSearcherIterationTelemetryAllocs|TestSearcherIterationTraceAllocs' -count 1 -v ./internal/core/

# bench-smoke is the candidate engine's fast perf gate: the zero-alloc
# assertions on the sweep (full and granular) and the searcher's generate
# path, plus one untimed pass over the 400-customer benchmarks so a broken
# benchmark fails here rather than in a long scripts/bench.sh run. The
# runner fails when a listed benchmark name matches nothing.
bench-smoke:
	$(GO) test -run 'TestCandidatesZeroAlloc|TestGranularSweepDeterministic' -count 1 -v ./internal/operators/
	$(GO) test -run 'TestGenerateZeroAlloc' -count 1 -v ./internal/core/
	GO=$(GO) ./scripts/benchsmoke.sh ./internal/operators/ BenchmarkCandidatesInto400 BenchmarkCandidatesGranular400
	GO=$(GO) ./scripts/benchsmoke.sh ./internal/core/ BenchmarkSearcherIteration

# metrics-lint boots a real tsmod daemon on an ephemeral port, pushes one
# traced job through it, scrapes GET /metrics twice, and lints the
# Prometheus exposition: well-formed lines, one TYPE per family, no
# duplicate series, monotone cumulative histogram buckets, le="+Inf" equal
# to _count, and no counter decreasing between scrapes.
metrics-lint:
	$(GO) test -count 1 ./scripts/metricslint/
	$(GO) run ./scripts/metricslint

# service-e2e runs the solver-service stack — job queue, HTTP/SSE API,
# daemon signal handling, and the CLI client — under the race detector.
# Covers the acceptance path: submit, stream, cancel, drain on SIGTERM.
service-e2e:
	$(GO) test -race -count 1 ./internal/service/ ./cmd/tsmod/ ./cmd/tsmoctl/

# recover-e2e runs the durability acceptance suite under the race
# detector: checkpoint/resume bit-identity across every variant, the
# journal replay and crash-snapshot service tests, and the kill -9 daemon
# e2e (a real tsmod process SIGKILLed mid-job, restarted, and checked
# against an uninterrupted reference run).
recover-e2e:
	$(GO) test -race -count 1 -run 'TestResumeBitIdentical|TestResumeRejectsMismatch|TestCheckpointConfigGuards' ./internal/core/
	$(GO) test -race -count 1 -run 'TestJournal|TestDurable|TestCrashRecovery|TestIdempotent' ./internal/service/
	$(GO) test -race -count 1 -v -run 'TestKill9Recovery' ./cmd/tsmod/

# dynamic-e2e runs the live re-optimization acceptance battery under the
# race detector: the mutation model and splice/repair unit tests with the
# live-equals-resume and bit-identical replay goldens across all variants,
# the schedule-cache Rebind splice, the service PATCH/SSE/WAL e2e (batch
# and inline mutations, epoch pinning, 409/400 surfaces, flight-recorder
# marker, HTTP-level determinism), the tsmoctl mutate CLI with a timed
# -script replay, and the kill -9 mutation-replay chaos test (a real tsmod
# SIGKILLed in both exactly-once windows).
dynamic-e2e:
	$(GO) test -race -count 1 ./internal/dynamic/
	$(GO) test -race -count 1 -run 'TestEvalRebind' ./internal/solution/
	$(GO) test -race -count 1 -run 'TestE2EDynamic|TestE2EMutate|TestE2EResumeGranularKMismatch' ./internal/service/
	$(GO) test -race -count 1 -run 'TestMutateCommand' ./cmd/tsmoctl/
	$(GO) test -race -count 1 -v -run 'TestKill9MutationReplay' ./cmd/tsmod/

# tenant-e2e runs the multi-tenant admission battery under the race
# detector: the tenant registry and keyfile unit tests, the deficit
# round-robin scheduler contract, the 50:1 fair-share starvation
# scenario, virtual-clock rate-limit determinism, the credential
# rejection table, the mutation-storm chaos test, quota/readyz/deadline
# shedding, the torn mutate-then-ckpt WAL recovery case, the
# coordinator's verbatim Retry-After relay, and the tenant-aware CLI.
tenant-e2e:
	$(GO) test -race -count 1 ./internal/tenant/
	$(GO) test -race -count 1 \
	  -run 'TestScheduler|TestE2EFairShare|TestE2ESubmitRateLimit|TestE2EAuthRejection|TestE2EMutationStorm|TestE2EReadyzAndShed|TestE2EDeadlineShed|TestE2ETenant|TestTornMutateBeforeCkpt' \
	  ./internal/service/
	$(GO) test -race -count 1 -run 'TestSubmitProxyRetryAfterVerbatim' ./internal/cluster/
	$(GO) test -race -count 1 -run 'TestTenantCommands' ./cmd/tsmoctl/

# chaos runs the deterministic fault-injection suite under the race
# detector: every scenario must complete, stay bit-identical across
# repetitions, and no variant may deadlock when a process dies.
chaos:
	$(GO) test -race -count 1 -v \
	  -run 'TestChaosScenarios|TestChaosGoroutineNoDeadlock|TestSyncTrajectoryMatchesSequential|TestMalformedPayloadSurfacesAsError' \
	  ./internal/core/
	$(GO) test -race -count 1 -run 'TestFaulty|TestParseFaultPlans|TestGoroutineAlive' ./internal/deme/

# cluster-e2e runs the multi-node acceptance suite under the race
# detector: the 3-node collaborative-share golden (bit-identical replay,
# merged front dominates a same-budget single node), the kill-a-member
# migration chaos test, coordinator partition handling, work stealing, and
# the share fan-out/ingress race tests on the node side.
cluster-e2e:
	$(GO) test -race -count 1 -v \
	  -run 'TestClusterShareGolden|TestClusterShareDominatesSingleNode|TestClusterKillMemberMigrates|TestCoordinatorPartition|TestClusterSteal|TestMergeFronts|TestSubmitValidation' \
	  ./internal/cluster/
	$(GO) test -race -count 1 -run 'TestShareSSEFanoutRace|TestShareIngressConcurrentSubscribers' ./internal/service/

# flaky-guard reruns the service and cluster e2e suites three times with a
# shuffled test order to flush order- and timing-dependent failures. CI
# runs it non-blocking and uploads flaky-guard.log as an artifact.
flaky-guard:
	$(GO) test -race -count 3 -shuffle on ./internal/service/ ./internal/cluster/ > flaky-guard.log 2>&1 \
	  || (tail -n 100 flaky-guard.log; exit 1)
	@tail -n 4 flaky-guard.log

# fuzz-smoke runs each fuzz target for FUZZTIME (default 30s) on top of the
# checked-in seed corpora.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDeltaMatchesApply -fuzztime $(FUZZTIME) ./internal/operators/
	$(GO) test -run '^$$' -fuzz FuzzFeasibilityGuard -fuzztime $(FUZZTIME) ./internal/operators/
	$(GO) test -run '^$$' -fuzz FuzzClusterMessages -fuzztime $(FUZZTIME) ./internal/cluster/

# bench refreshes BENCH_delta.json, BENCH_telemetry.json and
# BENCH_service.json via scripts/bench.sh (prior numbers are archived to
# BENCH_history.jsonl).
bench:
	./scripts/bench.sh

# profile runs a short goroutine-backend asynchronous search with the
# observability endpoints live and saves CPU and heap profiles next to a
# JSONL telemetry report. Inspect with: go tool pprof profiles/cpu.prof
profile: build
	mkdir -p profiles
	$(GO) run ./cmd/tsmo -alg asynchronous -procs 4 -backend goroutine \
	  -class R1 -n 200 -evals 60000 \
	  -telemetry profiles/run.jsonl -pprof 127.0.0.1:0 \
	  -cpuprofile profiles/cpu.prof -memprofile profiles/heap.prof
	@echo "profiles written to profiles/{cpu.prof,heap.prof,run.jsonl}"

verify: fmt build vet test race allocs bench-smoke metrics-lint
