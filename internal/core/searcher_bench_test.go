package core

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vrptw"
)

// benchGranularK is the granular-list size of the iteration benchmarks;
// the same value the quality-parity experiment in EXPERIMENTS.md uses.
const benchGranularK = 20

// benchSearcherCfg builds a searcher on a 400-customer instance with the
// paper's neighborhood size and an effectively unlimited budget. tel is
// nil for the baseline (disabled telemetry) benchmarks; granularK and
// evalWorkers configure the candidate engine (0: full neighborhoods,
// serial evaluation).
func benchSearcherCfg(b *testing.B, tel *telemetry.Telemetry, granularK, evalWorkers int) (*searcher, *stubProc, int) {
	b.Helper()
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxEvaluations = 1 << 60
	cfg.Telemetry = tel
	cfg.GranularK = granularK
	cfg.EvalWorkers = evalWorkers
	if err := cfg.validate(in, Sequential); err != nil {
		b.Fatal(err)
	}
	s := newSearcher(in, &cfg, rng.New(1), 0, 0, 0)
	p := &stubProc{}
	s.init(p)
	return s, p, cfg.NeighborhoodSize
}

// benchSearcher is benchSearcherCfg with the default engine (full
// neighborhoods, serial evaluation).
func benchSearcher(b *testing.B, tel *telemetry.Telemetry) (*searcher, *stubProc, int) {
	b.Helper()
	return benchSearcherCfg(b, tel, 0, 0)
}

// BenchmarkSearcherIteration measures one full generate+step iteration of
// the granular candidate engine — the ROADMAP's hot-path target
// (<=150µs/op, <=10 allocs/op on 400 customers): granular proposals from
// the sparse k-nearest graph, flat moves in reusable buffers, objectives-
// only candidates, incremental non-dominated bookkeeping, and lazy
// materialization of just the selected solution and the memory-bound
// entries.
func BenchmarkSearcherIteration(b *testing.B) {
	s, p, size := benchSearcherCfg(b, nil, benchGranularK, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(p, s.generate(p, size))
	}
}

// BenchmarkSearcherIterationFull is the same iteration with the paper's
// full neighborhoods (no granular lists) — the before side of the granular
// comparison in BENCH_granular.json.
func BenchmarkSearcherIterationFull(b *testing.B) {
	s, p, size := benchSearcher(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(p, s.generate(p, size))
	}
}

// BenchmarkSearcherIterationParallel is the granular iteration with the
// opt-in goroutine-parallel neighborhood evaluator (Config.EvalWorkers=4),
// bit-identical to the serial path.
func BenchmarkSearcherIterationParallel(b *testing.B) {
	s, p, size := benchSearcherCfg(b, nil, benchGranularK, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(p, s.generate(p, size))
	}
}

// BenchmarkSearcherIterationTelemetry is the granular iteration with every
// instrument recording: the pair gates the enabled-telemetry overhead
// (scripts/bench.sh writes the comparison to BENCH_telemetry.json; the
// disabled layer is additionally pinned to <2% and zero extra allocations
// against BenchmarkSearcherIteration).
func BenchmarkSearcherIterationTelemetry(b *testing.B) {
	s, p, size := benchSearcherCfg(b, telemetry.New(nil, nil), benchGranularK, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(p, s.generate(p, size))
	}
}

// BenchmarkSearcherIterationTrace is the granular iteration with an
// enabled span recorder: the searcher batches iterations into "sweep"
// spans, so the pair against BenchmarkSearcherIteration gates the
// enabled-tracing overhead at <=3% (scripts/bench.sh → BENCH_trace.json).
func BenchmarkSearcherIterationTrace(b *testing.B) {
	s, p, size := benchSearcherCfg(b, nil, benchGranularK, 0)
	tr := trace.New(0)
	s.tr = tr
	s.phase = tr.Start(nil, "run")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(p, s.generate(p, size))
	}
}

// TestStepMaterializesLazily asserts the lazy-materialization contract: a
// step over a full neighborhood must apply only a small fraction of the
// candidate moves (the selected one plus memory-accepted non-dominated
// entries), not all of them.
func TestStepMaterializesLazily(t *testing.T) {
	in := testInstance(t, 60)
	cfg := smallConfig()
	if err := cfg.validate(in, Sequential); err != nil {
		t.Fatal(err)
	}
	s := newSearcher(in, &cfg, rng.New(3), 0, 0, 0)
	p := &stubProc{}
	s.init(p)
	total, applied := 0, 0
	for iter := 0; iter < 10; iter++ {
		cands := s.generate(p, cfg.NeighborhoodSize)
		s.step(p, cands)
		total += len(cands)
		for i := range cands {
			if cands[i].sol != nil {
				applied++
			}
		}
	}
	if total == 0 {
		t.Fatal("no candidates generated")
	}
	if applied*2 >= total {
		t.Fatalf("step materialized %d of %d candidates; expected a small fraction", applied, total)
	}
}
