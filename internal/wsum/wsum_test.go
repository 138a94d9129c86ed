package wsum

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

func testInstance(t testing.TB) *vrptw.Instance {
	t.Helper()
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 40, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestLattice(t *testing.T) {
	ws := Lattice(4)
	if len(ws) != 15 {
		t.Fatalf("Lattice(4) has %d vectors, want 15", len(ws))
	}
	for _, w := range ws {
		sum := w.Distance + w.Vehicles + w.Tardiness
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("weights %+v sum to %g", w, sum)
		}
		if w.Distance < 0 || w.Vehicles < 0 || w.Tardiness < 0 {
			t.Errorf("negative weight in %+v", w)
		}
	}
	if len(Lattice(0)) != 3 {
		t.Errorf("Lattice(min) should fall back to resolution 1")
	}
}

func TestRandomWeightsOnSimplex(t *testing.T) {
	r := rng.New(3)
	for _, w := range RandomWeights(r, 100) {
		sum := w.Distance + w.Vehicles + w.Tardiness
		if math.Abs(sum-1) > 1e-9 || w.Distance < 0 || w.Vehicles < 0 || w.Tardiness < 0 {
			t.Fatalf("invalid simplex point %+v", w)
		}
	}
}

func TestNormalize(t *testing.T) {
	w := Weights{Distance: 2, Vehicles: 1, Tardiness: 1}.Normalize()
	if w.Distance != 0.5 || w.Vehicles != 0.25 {
		t.Errorf("Normalize wrong: %+v", w)
	}
	z := Weights{}.Normalize()
	if math.Abs(z.Distance+z.Vehicles+z.Tardiness-1) > 1e-12 {
		t.Errorf("zero weights should normalize to uniform, got %+v", z)
	}
}

func TestRunProducesValidFront(t *testing.T) {
	in := testInstance(t)
	res, err := Run(in, Config{
		Weights:          Lattice(2), // 6 vectors
		MaxEvaluations:   3000,
		NeighborhoodSize: 40,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if len(res.PerWeight) != 6 {
		t.Fatalf("PerWeight has %d entries, want 6", len(res.PerWeight))
	}
	for i, s := range res.PerWeight {
		if s == nil {
			t.Fatalf("weight %d produced no solution", i)
		}
		if err := solution.Validate(in, s); err != nil {
			t.Fatalf("weight %d: %v", i, err)
		}
	}
	for i := range res.Front {
		for j := range res.Front {
			if i != j && res.Front[i].Obj.Dominates(res.Front[j].Obj) {
				t.Fatal("front not mutually non-dominated")
			}
		}
	}
	if res.Evaluations < 3000*9/10 {
		t.Errorf("spent only %d of 3000 evaluations", res.Evaluations)
	}
}

func TestRunDeterministic(t *testing.T) {
	in := testInstance(t)
	cfg := Config{Weights: Lattice(2), MaxEvaluations: 1200, NeighborhoodSize: 30, Seed: 5}
	a, err := Run(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.PerWeight {
		if a.PerWeight[i].Obj != b.PerWeight[i].Obj {
			t.Fatalf("weight %d differs between identical runs", i)
		}
	}
	// The pinned digest covers the seeded run's result: any change to the
	// candidate sweep's random draws or to move semantics shows up here.
	const want = "8de36043af839d5ef909502f12afab8acd4a765f11ad8851abba0d3b862d3de3"
	if got := resultDigest(append(a.Front, a.PerWeight...), a.Evaluations); got != want {
		t.Errorf("result digest %s, want %s", got, want)
	}
}

func TestWeightsSteerTheSearch(t *testing.T) {
	in := testInstance(t)
	run := func(w Weights) solution.Objectives {
		res, err := Run(in, Config{
			Weights:          []Weights{w},
			MaxEvaluations:   4000,
			NeighborhoodSize: 40,
			Seed:             2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.PerWeight[0].Obj
	}
	distHeavy := run(Weights{Distance: 1})
	vehHeavy := run(Weights{Vehicles: 1, Distance: 0.01}) // tiny tie-break on distance
	if vehHeavy.Vehicles > distHeavy.Vehicles {
		t.Errorf("vehicle-weighted run used more vehicles (%g) than distance-weighted (%g)",
			vehHeavy.Vehicles, distHeavy.Vehicles)
	}
}

func TestRunValidation(t *testing.T) {
	in := testInstance(t)
	if _, err := Run(in, Config{Weights: Lattice(4), MaxEvaluations: 3}); err == nil {
		t.Error("budget below weight count accepted")
	}
}

func TestScalarMonotone(t *testing.T) {
	ref := solution.Objectives{Distance: 100, Vehicles: 10, Tardiness: 0}
	w := Weights{Distance: 1}.Normalize()
	a := solution.Objectives{Distance: 50, Vehicles: 10, Tardiness: 0}
	b := solution.Objectives{Distance: 60, Vehicles: 5, Tardiness: 0}
	if scalar(a, w, ref) >= scalar(b, w, ref) {
		t.Error("distance-only weights should rank the shorter solution better")
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
