package operators

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

const deltaTol = 1e-9

// checkDelta verifies that m.Delta agrees with the objectives of the
// materialized solution to within deltaTol.
func checkDelta(t *testing.T, in *vrptw.Instance, s *solution.Solution, e *solution.Eval, m MoveData, name string) {
	t.Helper()
	got, ok := m.Delta(in, s, e)
	if !ok {
		t.Fatalf("%s: Delta reported not computable for %+v", name, m)
	}
	want := m.Apply(in, s).Obj
	if math.Abs(got.Distance-want.Distance) > deltaTol ||
		got.Vehicles != want.Vehicles ||
		math.Abs(got.Tardiness-want.Tardiness) > deltaTol {
		t.Errorf("%s: %+v\n  Delta = %+v\n  Apply = %+v", name, m, got, want)
	}
}

// TestDeltaMatchesApplyProperty walks random solutions of instances up to
// the paper's 600-customer size and checks every operator's Delta against
// full materialization at each step; the extended set covers all eight
// move kinds.
func TestDeltaMatchesApplyProperty(t *testing.T) {
	cases := []struct {
		class vrptw.Class
		n     int
		steps int
		seed  uint64
	}{
		{vrptw.R1, 25, 60, 1},
		{vrptw.C2, 60, 40, 2},
		{vrptw.RC1, 100, 30, 3},
		{vrptw.R1, 400, 10, 4},
		{vrptw.RC2, 600, 6, 5},
	}
	for _, tc := range cases {
		in := genInstance(t, tc.class, tc.n, tc.seed)
		s := greedyFill(in)
		e := solution.NewEval(in, s)
		r := rng.New(tc.seed * 31)
		ops := Extended()
		for step := 0; step < tc.steps; step++ {
			var adv MoveData
			for _, op := range ops {
				m, ok := op.Propose(in, s, r)
				if !ok {
					continue
				}
				checkDelta(t, in, s, e, m, op.Name())
				adv = m
			}
			if adv.Kind == KindNone {
				continue
			}
			s = adv.Apply(in, s)
			e.Reset(in, s)
		}
	}
}

// TestDeltaEdgeCases drives every operator's Delta through the boundary
// geometries where segment algebra is easiest to get wrong: emptied and
// created routes, head/tail insertions, full reversals and adjacent cuts.
func TestDeltaEdgeCases(t *testing.T) {
	in := genInstance(t, vrptw.R2, 12, 7) // wide windows, large capacity
	s := solution.New(in, [][]int{{1}, {2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12}})
	e := solution.NewEval(in, s)

	// Parameter layouts per kind are documented on MoveData.
	cases := []struct {
		name string
		m    MoveData
	}{
		{"relocate/empties-singleton-donor", MoveData{Kind: KindRelocate, A: 0, B: 0, C: 1, D: 2, E: 1}},
		{"relocate/insert-at-head", MoveData{Kind: KindRelocate, A: 1, B: 2, C: 2, D: 0, E: 4}},
		{"relocate/insert-at-tail", MoveData{Kind: KindRelocate, A: 2, B: 0, C: 1, D: 5, E: 7}},
		{"exchange/head-tail-positions", MoveData{Kind: KindExchange, A: 1, B: 0, C: 2, D: 5, E: 2, F: 12}},
		{"exchange/adjacent-boundaries", MoveData{Kind: KindExchange, A: 1, B: 4, C: 2, D: 0, E: 6, F: 7}},
		{"2-opt/full-route-reversal", MoveData{Kind: KindTwoOpt, A: 2, B: 0, C: 5, D: 7, E: 12}},
		{"2-opt/adjacent-pair", MoveData{Kind: KindTwoOpt, A: 1, B: 2, C: 3, D: 4, E: 5}},
		{"2-opt*/merge-into-first", MoveData{Kind: KindTwoOptStar, A: 1, B: 5, C: 2, D: 0, E: 6, F: 0}},
		{"2-opt*/merge-into-second", MoveData{Kind: KindTwoOptStar, A: 1, B: 0, C: 2, D: 6, E: 0, F: 12}},
		{"2-opt*/mid-cut", MoveData{Kind: KindTwoOptStar, A: 1, B: 2, C: 2, D: 3, E: 3, F: 9}},
		{"or-opt/dst-before-seg", MoveData{Kind: KindOrOpt, A: 2, B: 3, C: 0, D: 10, E: 11}},
		{"or-opt/dst-after-seg", MoveData{Kind: KindOrOpt, A: 2, B: 0, C: 3, D: 7, E: 8}},
		{"or-opt/seg-at-tail", MoveData{Kind: KindOrOpt, A: 1, B: 3, C: 0, D: 5, E: 6}},
		{"or-opt-n/len-3", MoveData{Kind: KindOrOptN, A: 2, B: 1, C: 3, D: 0, E: 8, F: 10}},
		{"or-opt-n/len-1-to-tail", MoveData{Kind: KindOrOptN, A: 2, B: 0, C: 1, D: 5, E: 7, F: 7}},
		{"relocate-new/opens-route", MoveData{Kind: KindRelocateNew, A: 1, B: 1, C: 3}},
		{"cross-exchange/unequal-segments", MoveData{Kind: KindCrossExchange, A: 1, B: 1, C: 2, D: 2, E: 2, F: 3, G: 3, H: 9}},
		{"cross-exchange/head-segments", MoveData{Kind: KindCrossExchange, A: 1, B: 0, C: 1, D: 2, E: 0, F: 2, G: 2, H: 7}},
	}
	for _, tc := range cases {
		checkDelta(t, in, s, e, tc.m, tc.name)
	}
}

// TestCandidatesMatchNeighborhood pins the delta path to the materializing
// path: identical seeds must yield the same move sequence from
// CandidatesInto and MovesInto, and every delta objective must equal the
// objectives of the applied move to within deltaTol.
func TestCandidatesMatchNeighborhood(t *testing.T) {
	in := genInstance(t, vrptw.R1, 80, 29)
	s := greedyFill(in)
	moves := proposeMoves(NewGenerator(in, nil), s, rng.New(77), 60)
	var cs CandidateBuffer
	NewGenerator(in, nil).CandidatesInto(&cs, s, rng.New(77), 60)
	if len(moves) != len(cs.Data) {
		t.Fatalf("MovesInto produced %d moves, CandidatesInto %d", len(moves), len(cs.Data))
	}
	for i := range cs.Data {
		if cs.Data[i] != moves[i] {
			t.Fatalf("move %d differs between the two paths", i)
		}
		w := moves[i].Apply(in, s).Obj
		g := cs.Objs[i]
		if math.Abs(g.Distance-w.Distance) > deltaTol ||
			g.Vehicles != w.Vehicles ||
			math.Abs(g.Tardiness-w.Tardiness) > deltaTol {
			t.Errorf("candidate %d: delta obj %+v != materialized obj %+v", i, g, w)
		}
	}
}

// BenchmarkDeltaVsApply compares the per-candidate evaluation cost of the
// two paths on a 400-customer instance.
func BenchmarkDeltaVsApply(b *testing.B) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := greedyFill(in)
	moves := proposeMoves(NewGenerator(in, nil), s, rng.New(1), 200)
	if len(moves) == 0 {
		b.Fatal("no moves proposed")
	}
	e := solution.NewEval(in, s)
	b.Run("delta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := moves[i%len(moves)].Delta(in, s, e); !ok {
				b.Fatal("delta not computable")
			}
		}
	})
	b.Run("apply", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			moves[i%len(moves)].Apply(in, s)
		}
	})
}
