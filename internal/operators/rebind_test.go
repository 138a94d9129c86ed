package operators

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

// assertFreshEquivalent fails unless the incrementally rebound cache and
// index are bitwise equal to a from-scratch NewEval and PosIndex of s.
func assertFreshEquivalent(t *testing.T, step int, in *vrptw.Instance, s *solution.Solution, e *solution.Eval, px *PosIndex) {
	t.Helper()
	fresh := solution.NewEval(in, s)
	if e.Solution() != s || len(e.R) != len(fresh.R) {
		t.Fatalf("step %d: cache bound to %p with %d routes, want %p with %d", step, e.Solution(), len(e.R), s, len(fresh.R))
	}
	for ri := range fresh.R {
		got, want := &e.R[ri], &fresh.R[ri]
		for name, pair := range map[string][2][]float64{
			"Depart": {got.Depart, want.Depart},
			"Dist":   {got.Dist, want.Dist},
			"Tard":   {got.Tard, want.Tard},
			"Load":   {got.Load, want.Load},
			"Latest": {got.Latest, want.Latest},
		} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("step %d route %d: %s has %d entries, want %d", step, ri, name, len(pair[0]), len(pair[1]))
			}
			for p := range pair[1] {
				if math.Float64bits(pair[0][p]) != math.Float64bits(pair[1][p]) {
					t.Fatalf("step %d route %d: %s[%d] = %v, fresh build %v", step, ri, name, p, pair[0][p], pair[1][p])
				}
			}
		}
	}
	var fpx PosIndex
	fpx.Reset(in, s)
	if len(px.route) != len(fpx.route) {
		t.Fatalf("step %d: index covers %d sites, want %d", step, len(px.route), len(fpx.route))
	}
	for c := range fpx.route {
		if px.route[c] != fpx.route[c] || px.pos[c] != fpx.pos[c] {
			t.Fatalf("step %d: customer %d at (%d,%d), fresh index (%d,%d)", step, c, px.route[c], px.pos[c], fpx.route[c], fpx.pos[c])
		}
	}
}

// emptyRoute relocates the customers of route ri, one move at a time,
// into the least-loaded other route, so the last move empties ri and
// WithRoutes shifts every later route down one slot. It returns the chain
// of solutions, the last one without route ri.
func emptyRoute(in *vrptw.Instance, s *solution.Solution, ri int) []*solution.Solution {
	var chain []*solution.Solution
	for n := len(s.Routes[ri]); n > 0; n-- {
		to := -1
		for j := range s.Routes {
			if j != ri && (to < 0 || s.Load[j] < s.Load[to]) {
				to = j
			}
		}
		cust := s.Routes[ri][0]
		d := MoveData{Kind: KindRelocate, A: int32(ri), B: 0, C: int32(to), D: int32(len(s.Routes[to])), E: int32(cust)}
		s = d.Apply(in, s)
		chain = append(chain, s)
	}
	return chain
}

// TestIncrementalRebindMatchesFresh is the oracle for the identity-keyed
// rebind of Eval and PosIndex: one long-lived cache and index follow a
// random chain of applied moves of all eight kinds, route-emptying
// relocations that shift the later routes down one or two slots, steps
// back to the parent, restarts to earlier and unrelated solutions, and a
// switch to a second instance of equal size whose solution shares every
// route slice with the first. After every Reset both must equal a fresh
// build bit for bit.
func TestIncrementalRebindMatchesFresh(t *testing.T) {
	inA := genInstance(t, vrptw.R1, 60, 3)
	inB := genInstance(t, vrptw.C2, 60, 8)
	if inA.N() != inB.N() {
		t.Fatalf("instances differ in size: %d vs %d", inA.N(), inB.N())
	}
	r := rng.New(5)
	ops := Extended()
	var e solution.Eval
	var px PosIndex
	in := inA
	s := greedyFill(in)
	archive := []*solution.Solution{s}
	kinds := map[MoveKind]int{}
	shifts, restarts := 0, 0
	step := 0
	var parent *solution.Solution
	bind := func(next *solution.Solution) {
		parent, s = s, next
		e.Reset(in, s)
		px.Reset(in, s)
		assertFreshEquivalent(t, step, in, s, &e, &px)
		step++
	}
	bind(s)
	for iter := 0; iter < 1200; iter++ {
		switch {
		case iter == 600:
			// Same customers, same route slices, different instance:
			// every schedule changes although no route does.
			in = inB
			bind(solution.New(in, s.Routes))
			archive = []*solution.Solution{s}
		case iter%97 == 50 && len(s.Routes) > 2:
			ri := r.Intn(len(s.Routes) - 1) // never the last: its successors shift
			for _, next := range emptyRoute(in, s, ri) {
				bind(next)
			}
			shifts++
		case iter%89 == 20 && len(s.Routes) > 4:
			// A worker's view: the master emptied two routes since the
			// last solution this cache saw, so the routes after both
			// shift down two slots at once.
			next := s
			for range 2 {
				chain := emptyRoute(in, next, r.Intn(len(next.Routes)-2))
				next = chain[len(chain)-1]
			}
			bind(next)
			shifts++
		case iter%13 == 6:
			// Straight back to the parent: every slot the child
			// rebuilt or copied into must now be rebuilt again.
			bind(parent)
			restarts++
		case iter%61 == 30:
			if r.Intn(2) == 0 {
				bind(archive[r.Intn(len(archive))])
			} else {
				bind(greedyFill(in)) // unrelated: no route shared
			}
			restarts++
		default:
			op := ops[r.Intn(len(ops))]
			d, ok := op.Propose(in, s, r)
			if !ok {
				continue
			}
			kinds[d.Kind]++
			bind(d.Apply(in, s))
			if iter%7 == 0 {
				archive = append(archive, s)
			}
		}
	}
	for k := KindRelocate; k <= KindCrossExchange; k++ {
		if kinds[k] == 0 {
			t.Errorf("move kind %d never applied", k)
		}
	}
	if shifts < 5 || restarts < 5 {
		t.Errorf("chain exercised %d route-emptying shifts and %d restarts, want at least 5 each", shifts, restarts)
	}
}
