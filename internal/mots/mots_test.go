package mots

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
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 40, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestRunBasics(t *testing.T) {
	in := testInstance(t)
	res, err := Run(in, Config{Points: 4, MaxEvaluations: 3000, NeighborhoodSize: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if res.Evaluations < 3000 {
		t.Errorf("evaluations %d below budget", res.Evaluations)
	}
	if res.Iterations == 0 {
		t.Error("no iterations")
	}
	for i, s := range res.Front {
		if err := solution.Validate(in, s); err != nil {
			t.Fatalf("front[%d]: %v", i, err)
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
	res, err := Run(in, Config{Points: 4, MaxEvaluations: 4000, NeighborhoodSize: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	init := construct.I1(in, construct.DefaultParams())
	improved := false
	for _, s := range res.Front {
		if s.Obj.Feasible() && s.Obj.Distance < init.Obj.Distance {
			improved = true
		}
	}
	if !improved {
		t.Error("MOTS found nothing better than I1")
	}
}

func TestRunDeterministic(t *testing.T) {
	in := testInstance(t)
	cfg := Config{Points: 3, MaxEvaluations: 1500, NeighborhoodSize: 25, Seed: 9}
	a, err := Run(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Front) != len(b.Front) || a.Iterations != b.Iterations {
		t.Fatal("nondeterministic run")
	}
	for i := range a.Front {
		if a.Front[i].Obj != b.Front[i].Obj {
			t.Fatal("front differs between identical runs")
		}
	}
	// The pinned digest covers the seeded run's result: any change to the
	// candidate sweep's random draws or to move semantics shows up here.
	const want = "3790a9e5734cd04410f7cb87e967825786c839bce5a2a29e80bf90a770fa4c25"
	if got := resultDigest(a.Front, a.Evaluations, a.Iterations); got != want {
		t.Errorf("result digest %s, want %s", got, want)
	}
}

func TestRunValidation(t *testing.T) {
	in := testInstance(t)
	if _, err := Run(in, Config{Points: 1, MaxEvaluations: 100}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := Run(in, Config{Points: 4, MaxEvaluations: 2}); err == nil {
		t.Error("budget below points accepted")
	}
}

func TestDiversifyingWeights(t *testing.T) {
	mk := func(d, v, tr float64) *point {
		return &point{cur: &solution.Solution{Obj: solution.Objectives{Distance: d, Vehicles: v, Tardiness: tr}}}
	}
	// Point 0 leads on distance, point 1 on vehicles.
	pts := []*point{mk(10, 9, 0), mk(20, 3, 0)}
	ws := diversifyingWeights(pts)
	for i, w := range ws {
		sum := w[0] + w[1] + w[2]
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights %d not normalized: %v", i, w)
		}
	}
	if ws[0][0] <= ws[0][1] {
		t.Errorf("point 0 should weigh distance over vehicles: %v", ws[0])
	}
	if ws[1][1] <= ws[1][0] {
		t.Errorf("point 1 should weigh vehicles over distance: %v", ws[1])
	}
}

func TestDiversifyingWeightsDegenerate(t *testing.T) {
	mk := func(d float64) *point {
		return &point{cur: &solution.Solution{Obj: solution.Objectives{Distance: d, Vehicles: 5, Tardiness: 0}}}
	}
	// Identical points: ranges are zero, weights must stay finite.
	pts := []*point{mk(10), mk(10), mk(10)}
	for _, w := range diversifyingWeights(pts) {
		for _, v := range w {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("degenerate weights: %v", w)
			}
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
