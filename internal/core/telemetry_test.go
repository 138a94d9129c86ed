package core

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/deme"
	"repro/internal/operators"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/tabu"
	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

// newTelemetrySearcher is newTestSearcher with an enabled instrument layer.
func newTelemetrySearcher(t *testing.T) (*searcher, *stubProc, *telemetry.Telemetry) {
	t.Helper()
	in := testInstance(t, 20)
	cfg := smallConfig()
	cfg.Telemetry = telemetry.New(nil, nil)
	if err := cfg.validate(in, Sequential); err != nil {
		t.Fatal(err)
	}
	s := newSearcher(in, &cfg, rng.New(1), 0, 0, 0)
	p := &stubProc{}
	s.init(p)
	return s, p, cfg.Telemetry
}

// TestTelemetryRestartNoCandidate drives the "s ∉ N" trigger: a candidate
// set whose only members are tabu and non-aspiring leaves selectCand
// empty-handed, which must restart and count RestartsNoCand.
func TestTelemetryRestartNoCandidate(t *testing.T) {
	s, p, tel := newTelemetrySearcher(t)
	cur := s.cur.Obj
	s.tl.Add(7)
	// Tabu, and dominated by the archived current solution: no aspiration.
	bad := mkCand(cur.Distance+10, cur.Vehicles, cur.Tardiness+1, 7)
	s.step(p, []cand{bad})

	if got := tel.Search.RestartsNoCand.Load(); got != 1 {
		t.Errorf("RestartsNoCand = %d, want 1", got)
	}
	if got := tel.Search.RestartsStagn.Load(); got != 0 {
		t.Errorf("RestartsStagn = %d, want 0", got)
	}
	if got := tel.Search.TabuRejected.Load(); got != 1 {
		t.Errorf("TabuRejected = %d, want 1", got)
	}
	if got := tel.Search.Iterations.Load(); got != 1 {
		t.Errorf("Iterations = %d, want 1", got)
	}
}

// TestTelemetryRestartStagnation drives the 100-iteration (here: perturbed
// small-config) stagnation trigger and checks it is counted separately.
func TestTelemetryRestartStagnation(t *testing.T) {
	s, p, tel := newTelemetrySearcher(t)
	cur := s.cur
	for i := 0; i < s.restartIters; i++ {
		bad := mkCand(cur.Obj.Distance+float64(i+1), cur.Obj.Vehicles+1, cur.Obj.Tardiness+1, tabu.Attribute(100+i))
		s.step(p, []cand{bad})
	}
	if !s.noImprovement {
		t.Fatal("stagnation flag not raised")
	}
	if got := tel.Search.RestartsStagn.Load(); got != 0 {
		t.Fatalf("stagnation restart fired early: %d", got)
	}
	good := mkCand(cur.Obj.Distance-1, cur.Obj.Vehicles, cur.Obj.Tardiness, 999)
	s.step(p, []cand{good})
	if got := tel.Search.RestartsStagn.Load(); got != 1 {
		t.Errorf("RestartsStagn = %d, want 1", got)
	}
	if got := tel.Search.RestartsNoCand.Load(); got != 0 {
		t.Errorf("RestartsNoCand = %d, want 0", got)
	}
}

// TestTelemetryRestartConsumesNondom pins the memory semantics of restarts
// via the counters: M_nondom entries are consumed (NondomConsumed grows as
// the store shrinks) while archive entries survive every restart.
func TestTelemetryRestartConsumesNondom(t *testing.T) {
	s, _, tel := newTelemetrySearcher(t)
	// Empty the archive's influence: restart draws from nondom ∪ archive,
	// so with a filled M_nondom and the 1-entry archive, repeated restarts
	// must eventually consume nondom entries.
	for i := 0; i < 5; i++ {
		s.nondom.Add(&solution.Solution{Obj: solution.Objectives{
			Distance: float64(10 - i), Vehicles: float64(i + 1),
		}})
	}
	archiveBefore := s.archive.Len()
	nondomBefore := s.nondom.Len()
	consumed := 0
	for i := 0; i < 50 && s.nondom.Len() > 0; i++ {
		consumed += s.restart()
	}
	if consumed == 0 {
		t.Fatal("no M_nondom entry consumed over 50 restarts")
	}
	if got := tel.Search.NondomConsumed.Load(); got != 0 {
		// restart() itself does not count; step() does. Counted below.
		t.Fatalf("restart() counted NondomConsumed directly: %d", got)
	}
	if s.nondom.Len() != nondomBefore-consumed {
		t.Errorf("M_nondom shrank by %d, consumed %d", nondomBefore-s.nondom.Len(), consumed)
	}
	if s.archive.Len() != archiveBefore {
		t.Errorf("archive size changed across restarts: %d -> %d", archiveBefore, s.archive.Len())
	}

	// Now through step(): the no-candidate restart must add what it
	// consumed to the counter.
	cur := s.cur.Obj
	s.nondom.Add(&solution.Solution{Obj: solution.Objectives{Distance: 1, Vehicles: 1}})
	p := &stubProc{}
	for i := 0; i < 50 && tel.Search.NondomConsumed.Load() == 0; i++ {
		s.tl.Add(tabu.Attribute(500 + i))
		bad := mkCand(cur.Distance+10, cur.Vehicles+1, cur.Tardiness+1, tabu.Attribute(500+i))
		s.step(p, []cand{bad})
		// Refill so a consumable entry is always available.
		s.nondom.Add(&solution.Solution{Obj: solution.Objectives{Distance: 1, Vehicles: 1}})
	}
	if got := tel.Search.NondomConsumed.Load(); got == 0 {
		t.Error("NondomConsumed never counted through step()")
	}
}

// TestTelemetryAspirationCounter checks the aspiration instrument against
// the selection semantics already pinned by TestSelectCandAspiration.
func TestTelemetryAspirationCounter(t *testing.T) {
	s, _, tel := newTelemetrySearcher(t)
	cur := s.cur.Obj
	s.tl.Add(9)
	cands := []cand{mkCand(cur.Distance-50, cur.Vehicles, 0, 9)}
	if got := s.selectCand(cands, nondomIndices(cands)); got != 0 {
		t.Fatal("aspiration did not admit the candidate")
	}
	if got := tel.Search.AspirationFires.Load(); got != 1 {
		t.Errorf("AspirationFires = %d, want 1", got)
	}
	if got := tel.Search.TabuRejected.Load(); got != 0 {
		t.Errorf("TabuRejected = %d, want 0", got)
	}
}

// TestTelemetryOperatorFunnel runs real iterations and checks the operator
// funnel invariants: proposals cover the neighborhood, selections and
// acceptances never exceed proposals.
func TestTelemetryOperatorFunnel(t *testing.T) {
	s, p, tel := newTelemetrySearcher(t)
	for i := 0; i < 30; i++ {
		s.step(p, s.generate(p, s.neighborhood))
	}
	snap := tel.Operators().Snapshot()
	if len(snap) == 0 {
		t.Fatal("no operator stats recorded")
	}
	var proposed, selected int64
	for name, e := range snap {
		prop := e["proposed"].(int64)
		sel := e["selected"].(int64)
		acc := e["accepted"].(int64)
		if sel > prop || acc > prop {
			t.Errorf("operator %s funnel inverted: %v", name, e)
		}
		proposed += prop
		selected += sel
	}
	if proposed != tel.Search.Evaluations.Load()-1 { // -1: the construction eval
		t.Errorf("proposals %d != evaluations-1 %d", proposed, tel.Search.Evaluations.Load()-1)
	}
	if selected == 0 {
		t.Error("no operator was ever selected over 30 iterations")
	}
	if tel.Delta.DeltaFast.Load()+tel.Delta.ApplyFallback.Load() != proposed {
		t.Errorf("delta fast %d + fallback %d != proposals %d",
			tel.Delta.DeltaFast.Load(), tel.Delta.ApplyFallback.Load(), proposed)
	}
	if tel.Splice.Calls.Load() == 0 {
		t.Error("SpliceMetrics instrument never fired")
	}
}

// TestTelemetryOperatorFunnelKeys runs every master-side counting path —
// the sequential searcher, the synchronous master and the asynchronous
// workers — with the extended operator set and checks that the funnel has
// exactly one entry per configured operator, keyed by its Name(): the
// proposal, selection and acceptance counts land on the same entry as the
// exhaustions and granular fallbacks of the operator that drew the move.
func TestTelemetryOperatorFunnelKeys(t *testing.T) {
	in := testInstance(t, 60)
	ops := operators.Extended()
	want := make([]string, len(ops))
	for i, op := range ops {
		want[i] = op.Name()
	}
	sort.Strings(want)
	for _, alg := range []Algorithm{Sequential, Synchronous, Asynchronous} {
		for _, k := range []int{0, 10} {
			tel := telemetry.New(nil, nil)
			cfg := smallConfig()
			cfg.Operators = ops
			cfg.GranularK = k
			cfg.Processors = 3
			cfg.Telemetry = tel
			if _, err := Run(alg, in, cfg, deme.NewSim(deme.Origin3800())); err != nil {
				t.Fatalf("%v k=%d: %v", alg, k, err)
			}
			snap := tel.Operators().Snapshot()
			got := make([]string, 0, len(snap))
			for name, e := range snap {
				got = append(got, name)
				if e["proposed"].(int64)+e["exhausted"].(int64) == 0 {
					t.Errorf("%v k=%d: operator %s has an empty funnel entry: %v", alg, k, name, e)
				}
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("%v k=%d: funnel keys %v, want %v", alg, k, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v k=%d: funnel keys %v, want %v", alg, k, got, want)
				}
			}
		}
	}
}

// TestTelemetryDeterminism asserts the instrument layer does not perturb
// the search: the same seeded run with and without telemetry must visit
// the identical trajectory.
func TestTelemetryDeterminism(t *testing.T) {
	runOnce := func(tel *telemetry.Telemetry) solution.Objectives {
		in := testInstance(t, 20)
		cfg := smallConfig()
		cfg.Telemetry = tel
		if err := cfg.validate(in, Sequential); err != nil {
			t.Fatal(err)
		}
		s := newSearcher(in, &cfg, rng.New(42), 0, 0, 0)
		p := &stubProc{}
		s.init(p)
		for i := 0; i < 40; i++ {
			s.step(p, s.generate(p, s.neighborhood))
		}
		return s.cur.Obj
	}
	plain := runOnce(nil)
	instrumented := runOnce(telemetry.New(nil, nil))
	if plain != instrumented {
		t.Errorf("telemetry changed the trajectory: %+v vs %+v", plain, instrumented)
	}
}

// TestSearcherIterationTelemetryAllocs is the zero-extra-allocation gate on
// the hot path (wired into make verify): a full generate+step iteration on
// the 400-customer benchmark instance must allocate exactly as much with
// disabled telemetry as the layer-free baseline, and enabling the
// instruments must add zero allocations per iteration.
func TestSearcherIterationTelemetryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("400-customer instance construction in -short mode")
	}
	measure := func(tel *telemetry.Telemetry) float64 {
		in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 400, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.MaxEvaluations = 1 << 60
		cfg.Telemetry = tel
		if err := cfg.validate(in, Sequential); err != nil {
			t.Fatal(err)
		}
		s := newSearcher(in, &cfg, rng.New(1), 0, 0, 0)
		p := &stubProc{}
		s.init(p)
		return testing.AllocsPerRun(20, func() {
			s.step(p, s.generate(p, cfg.NeighborhoodSize))
		})
	}
	disabled := measure(nil)
	enabled := measure(telemetry.New(nil, nil))
	if enabled > disabled {
		t.Errorf("enabled telemetry allocates more: %.1f vs %.1f allocs/iteration", enabled, disabled)
	}
	// Guard against silent hot-path regressions: PR 1's baseline was 226
	// allocs per iteration (BENCH_delta.json); leave headroom for archive
	// churn variance only.
	if disabled > 300 {
		t.Errorf("disabled-telemetry iteration allocates %.1f times, want <= 300", disabled)
	}
}

// TestQualitySampleJSON is the regression test for the +Inf sentinel: a
// sample without any feasible solution must marshal to valid JSON with the
// best-feasible fields omitted, and round-trip back to +Inf.
func TestQualitySampleJSON(t *testing.T) {
	infSample := QualitySample{
		Evals:        500,
		Time:         1.25,
		BestDistance: math.Inf(1),
		BestVehicles: math.Inf(1),
		ArchiveSize:  3,
	}
	b, err := json.Marshal(infSample)
	if err != nil {
		t.Fatalf("marshaling the +Inf sample: %v", err)
	}
	if strings.Contains(string(b), "best_distance") || strings.Contains(string(b), "best_vehicles") {
		t.Errorf("+Inf fields not omitted: %s", b)
	}
	var back QualitySample
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(back.BestDistance, 1) || !math.IsInf(back.BestVehicles, 1) {
		t.Errorf("+Inf sentinel not restored: %+v", back)
	}
	if back.Evals != 500 || back.Time != 1.25 || back.ArchiveSize != 3 {
		t.Errorf("plain fields lost: %+v", back)
	}

	finite := QualitySample{Evals: 1000, Time: 2, BestDistance: 321.5, BestVehicles: 7, ArchiveSize: 9}
	b, err = json.Marshal(finite)
	if err != nil {
		t.Fatal(err)
	}
	var back2 QualitySample
	if err := json.Unmarshal(b, &back2); err != nil {
		t.Fatal(err)
	}
	if back2 != finite {
		t.Errorf("finite sample did not round-trip: %+v vs %+v", back2, finite)
	}

	// A slice of mixed samples — the Result.Samples shape — must also be
	// marshalable (this is what used to fail with +Inf members).
	if _, err := json.Marshal([]QualitySample{infSample, finite}); err != nil {
		t.Errorf("marshaling mixed samples: %v", err)
	}
}
