package moea

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/construct"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

func testInstance(t testing.TB) *vrptw.Instance {
	t.Helper()
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestRunBasics(t *testing.T) {
	in := testInstance(t)
	res, err := Run(in, Config{PopulationSize: 20, MaxEvaluations: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if res.Evaluations < 2000 {
		t.Errorf("evaluations %d below budget", res.Evaluations)
	}
	if res.Generations == 0 {
		t.Error("no generations")
	}
	for i, s := range res.Front {
		if err := solution.Validate(in, s); err != nil {
			t.Fatalf("front[%d] invalid: %v", i, err)
		}
	}
	for i := range res.Front {
		for j := range res.Front {
			if i != j && res.Front[i].Obj.Dominates(res.Front[j].Obj) {
				t.Fatal("front not mutually non-dominated")
			}
		}
	}
}

func TestRunImprovesOnConstruction(t *testing.T) {
	in := testInstance(t)
	res, err := Run(in, Config{PopulationSize: 20, MaxEvaluations: 3000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	init := construct.I1(in, construct.DefaultParams())
	best := init.Obj.Distance
	improved := false
	for _, s := range res.Front {
		if s.Obj.Feasible() && s.Obj.Distance < best {
			improved = true
		}
	}
	if !improved {
		t.Errorf("NSGA-II found nothing better than I1 (%.1f)", best)
	}
}

func TestRunDeterministic(t *testing.T) {
	in := testInstance(t)
	cfg := Config{PopulationSize: 16, MaxEvaluations: 1000, Seed: 9}
	a, err := Run(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Front) != len(b.Front) || a.Generations != b.Generations {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d fronts/gens",
			len(a.Front), a.Generations, len(b.Front), b.Generations)
	}
	for i := range a.Front {
		if a.Front[i].Obj != b.Front[i].Obj {
			t.Fatal("front differs between identical runs")
		}
	}
	// The pinned digest covers the seeded run's result: any change to the
	// candidate sweep's random draws or to move semantics shows up here.
	const want = "1f82706ca8854c4bd7b6dc001d4ae63a4f05da654d98865bcc4c58cbcb94f593"
	if got := resultDigest(a.Front, a.Evaluations, a.Generations); got != want {
		t.Errorf("result digest %s, want %s", got, want)
	}
}

func TestRunValidation(t *testing.T) {
	in := testInstance(t)
	if _, err := Run(in, Config{PopulationSize: 2, MaxEvaluations: 100}); err == nil {
		t.Error("tiny population accepted")
	}
	if _, err := Run(in, Config{PopulationSize: 50, MaxEvaluations: 10}); err == nil {
		t.Error("budget below population accepted")
	}
}

func TestFastNondominatedSort(t *testing.T) {
	mk := func(d, v float64) *solution.Solution {
		return &solution.Solution{Obj: solution.Objectives{Distance: d, Vehicles: v}}
	}
	pop := []*solution.Solution{
		mk(1, 1), // front 0
		mk(2, 2), // front 1 (dominated by 0)
		mk(0, 3), // front 0 (trade-off with 0)
		mk(3, 3), // front 2 (dominated by 0 and 1)
	}
	fronts := fastNondominatedSort(pop)
	if len(fronts) != 3 {
		t.Fatalf("got %d fronts, want 3", len(fronts))
	}
	if len(fronts[0]) != 2 {
		t.Errorf("front 0 size %d, want 2", len(fronts[0]))
	}
	if len(fronts[1]) != 1 || fronts[1][0] != 1 {
		t.Errorf("front 1 = %v, want [1]", fronts[1])
	}
	if len(fronts[2]) != 1 || fronts[2][0] != 3 {
		t.Errorf("front 2 = %v, want [3]", fronts[2])
	}
}

func TestEnvironmentalSelection(t *testing.T) {
	mk := func(d, v float64) *solution.Solution {
		return &solution.Solution{Obj: solution.Objectives{Distance: d, Vehicles: v}}
	}
	// Front 0 has 2, front 1 has 3; target 4 forces crowding truncation
	// of front 1, which must keep its boundary points.
	all := []*solution.Solution{
		mk(0, 10), mk(10, 0), // front 0
		mk(5, 11), mk(6, 10.9), mk(11, 5), // front 1
	}
	next := environmental(all, 4)
	if len(next) != 4 {
		t.Fatalf("selected %d, want 4", len(next))
	}
	// Both front-0 members survive.
	if !(contains(next, all[0]) && contains(next, all[1])) {
		t.Error("front 0 member dropped")
	}
	// Crowding keeps the extremes of front 1: (5,11) and (11,5).
	if !contains(next, all[2]) || !contains(next, all[4]) {
		t.Error("crowding dropped a boundary point of the split front")
	}
}

func contains(pop []*solution.Solution, s *solution.Solution) bool {
	for _, p := range pop {
		if p == s {
			return true
		}
	}
	return false
}

func BenchmarkNSGA2Generation(b *testing.B) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(in, Config{PopulationSize: 50, MaxEvaluations: 500, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// resultDigest hashes a run's solution objectives (exact float bits) and
// its counters, pinning the whole trajectory of a seeded run.
func resultDigest(sols []*solution.Solution, counts ...int) string {
	h := sha256.New()
	var b [8]byte
	for _, s := range sols {
		for _, v := range s.Obj.Values() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, c := range counts {
		binary.LittleEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
