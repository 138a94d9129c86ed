package operators

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

// fuzzInstance derives a small instance and a feasible starting solution
// from the fuzzer's raw parameters. The class and size are folded into
// valid ranges so every input is exercisable.
func fuzzInstance(t *testing.T, class, n, seed uint64) (*vrptw.Instance, *solution.Solution) {
	t.Helper()
	in, err := vrptw.Generate(vrptw.GenConfig{
		Class: vrptw.Class(class % 6),
		N:     int(5 + n%60),
		Seed:  seed,
	})
	if err != nil {
		t.Skip(err)
	}
	return in, greedyFill(in)
}

// FuzzDeltaMatchesApply drives a random walk of all eight move kinds over
// fuzzer-chosen instances and checks, at every step, that MoveData.Delta
// agrees with the objectives of the fully materialized MoveData.Apply to
// within deltaTol — the contract the parallel variants rely on when
// workers delta-evaluate shipped moves.
func FuzzDeltaMatchesApply(f *testing.F) {
	f.Add(uint64(0), uint64(35), uint64(11), uint64(1))
	f.Add(uint64(1), uint64(20), uint64(3), uint64(9))
	f.Add(uint64(2), uint64(45), uint64(7), uint64(2))
	f.Add(uint64(5), uint64(12), uint64(99), uint64(17))
	f.Fuzz(func(t *testing.T, class, n, seed, walk uint64) {
		in, s := fuzzInstance(t, class, n, seed)
		g := NewGenerator(in, Extended())
		r := rng.New(walk)
		for step := 0; step < 12; step++ {
			moves := proposeMoves(g, s, r, 6)
			if len(moves) == 0 {
				return
			}
			e := g.eval(s)
			var next *solution.Solution
			for _, m := range moves {
				applied := m.Apply(in, s)
				if err := solution.Validate(in, applied); err != nil {
					t.Fatalf("%+v produced an invalid solution: %v", m, err)
				}
				if got, ok := m.Delta(in, s, e); ok {
					want := applied.Obj
					if math.Abs(got.Distance-want.Distance) > deltaTol ||
						got.Vehicles != want.Vehicles ||
						math.Abs(got.Tardiness-want.Tardiness) > deltaTol {
						t.Fatalf("Delta %+v != Apply %+v for %+v", got, want, m)
					}
				}
				next = applied
			}
			s = next
		}
	})
}

// arcSet collects the directed arcs of a solution, depot boundaries
// included.
func arcSet(s *solution.Solution) map[[2]int]bool {
	set := make(map[[2]int]bool)
	for _, route := range s.Routes {
		prev := 0
		for _, c := range route {
			set[[2]int{prev, c}] = true
			prev = c
		}
		set[[2]int{prev, 0}] = true
	}
	return set
}

// FuzzFeasibilityGuard fuzzes the operators' local feasibility criterion:
// every move must keep all route loads within capacity, and every genuinely
// new arc — one whose forward or reverse direction did not already exist
// (segment reversals recycle old arcs backwards, which the paper's
// criterion deliberately does not re-check) — must satisfy arcOK.
func FuzzFeasibilityGuard(f *testing.F) {
	f.Add(uint64(0), uint64(35), uint64(11), uint64(1))
	f.Add(uint64(3), uint64(25), uint64(5), uint64(4))
	f.Add(uint64(4), uint64(50), uint64(23), uint64(8))
	f.Fuzz(func(t *testing.T, class, n, seed, walk uint64) {
		in, s := fuzzInstance(t, class, n, seed)
		g := NewGenerator(in, All())
		r := rng.New(walk)
		for step := 0; step < 12; step++ {
			moves := proposeMoves(g, s, r, 6)
			if len(moves) == 0 {
				return
			}
			base := arcSet(s)
			var next *solution.Solution
			for _, m := range moves {
				applied := m.Apply(in, s)
				for i, load := range applied.Load {
					if load > in.Capacity {
						t.Fatalf("%+v overloaded route %d: %g > %g", m, i, load, in.Capacity)
					}
				}
				for arc := range arcSet(applied) {
					if base[arc] || base[[2]int{arc[1], arc[0]}] {
						continue
					}
					if !arcOK(in, arc[0], arc[1]) {
						t.Fatalf("%+v created arc %d->%d violating the local feasibility criterion",
							m, arc[0], arc[1])
					}
				}
				next = applied
			}
			s = next
		}
	})
}
