package operators

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

func TestExtendedOperatorsPreserveInvariants(t *testing.T) {
	in := genInstance(t, vrptw.R1, 40, 13)
	s := greedyFill(in)
	r := rng.New(5)
	for _, op := range Extended() {
		applied := 0
		for try := 0; try < 300; try++ {
			m, ok := op.Propose(in, s, r)
			if !ok {
				continue
			}
			next := m.Apply(in, s)
			if err := solution.Validate(in, next); err != nil {
				t.Fatalf("%s: %v", op.Name(), err)
			}
			applied++
			s = next
		}
		if applied == 0 {
			t.Errorf("%s: no feasible move found", op.Name())
		}
	}
}

func TestOrOptNSegmentLengths(t *testing.T) {
	in := genInstance(t, vrptw.R2, 12, 3)
	s := solution.New(in, [][]int{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}})
	r := rng.New(7)
	lengths := map[int]bool{}
	for try := 0; try < 500; try++ {
		m, ok := (OrOptN{MaxLen: 3}).Propose(in, s, r)
		if !ok {
			continue
		}
		if m.Kind != KindOrOptN {
			t.Fatalf("or-opt-n proposed a move of kind %d", m.Kind)
		}
		length := int(m.C)
		if length < 1 || length > 3 {
			t.Fatalf("segment length %d out of [1,3]", length)
		}
		lengths[length] = true
		next := m.Apply(in, s)
		if err := solution.Validate(in, next); err != nil {
			t.Fatal(err)
		}
	}
	for l := 1; l <= 3; l++ {
		if !lengths[l] {
			t.Errorf("length %d never proposed", l)
		}
	}
}

func TestRelocateNewAddsVehicle(t *testing.T) {
	in := genInstance(t, vrptw.R2, 10, 7)
	s := solution.New(in, [][]int{{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}})
	r := rng.New(3)
	m, ok := (RelocateNew{}).Propose(in, s, r)
	if !ok {
		t.Fatal("no relocate-new move proposed")
	}
	next := m.Apply(in, s)
	if err := solution.Validate(in, next); err != nil {
		t.Fatal(err)
	}
	if len(next.Routes) != 3 {
		t.Fatalf("got %d routes, want 3", len(next.Routes))
	}
	if next.Obj.Vehicles != 3 {
		t.Errorf("vehicles = %g, want 3", next.Obj.Vehicles)
	}
	// Original untouched.
	if len(s.Routes) != 2 {
		t.Error("original solution mutated")
	}
}

func TestRelocateNewRespectsFleetBound(t *testing.T) {
	in := genInstance(t, vrptw.R2, 10, 7)
	// Fleet bound reached: as many routes as vehicles.
	routes := make([][]int, 0)
	per := 10 / in.Vehicles
	if per < 1 {
		per = 1
	}
	var cur []int
	for c := 1; c <= 10; c++ {
		cur = append(cur, c)
		if len(cur) == per && len(routes) < in.Vehicles-1 {
			routes = append(routes, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		routes = append(routes, cur)
	}
	if len(routes) != in.Vehicles {
		t.Skipf("could not construct fleet-saturated solution (%d routes, %d vehicles)", len(routes), in.Vehicles)
	}
	s := solution.New(in, routes)
	if _, ok := (RelocateNew{}).Propose(in, s, rng.New(1)); ok {
		t.Error("relocate-new proposed beyond the fleet bound")
	}
}

func TestCrossExchangeSwapsSegments(t *testing.T) {
	in := genInstance(t, vrptw.R2, 10, 7)
	s := solution.New(in, [][]int{{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}})
	r := rng.New(9)
	swapped := false
	for try := 0; try < 200 && !swapped; try++ {
		m, ok := (CrossExchange{MaxLen: 3}).Propose(in, s, r)
		if !ok {
			continue
		}
		next := m.Apply(in, s)
		if err := solution.Validate(in, next); err != nil {
			t.Fatal(err)
		}
		if m.C != m.F { // l1 != l2
			// Unequal lengths change route sizes.
			if len(next.Routes[0]) == 5 && len(next.Routes[1]) == 5 {
				t.Fatal("unequal segment swap left route sizes unchanged")
			}
		}
		swapped = true
	}
	if !swapped {
		t.Error("cross-exchange never applied")
	}
}

func TestExtendedChainProperty(t *testing.T) {
	f := func(seed uint64) bool {
		in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.Class(seed % 6), N: 20, Seed: seed})
		if err != nil {
			return false
		}
		s := greedyFill(in)
		r := rng.New(seed)
		ops := Extended()
		for step := 0; step < 100; step++ {
			op := ops[r.Intn(len(ops))]
			m, ok := op.Propose(in, s, r)
			if !ok {
				continue
			}
			s = m.Apply(in, s)
			if solution.Validate(in, s) != nil {
				return false
			}
			if len(s.Routes) > in.Vehicles {
				return false // fleet bound must hold under relocate-new
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestGeneratorWithExtendedOperators(t *testing.T) {
	in := genInstance(t, vrptw.RC2, 40, 2)
	s := greedyFill(in)
	g := NewGenerator(in, Extended())
	moves := proposeMoves(g, s, rng.New(4), 60)
	if len(moves) != 60 {
		t.Fatalf("neighborhood size %d, want 60", len(moves))
	}
	names := map[string]bool{}
	for _, m := range moves {
		names[g.KindName(m.Kind)] = true
		if err := solution.Validate(in, m.Apply(in, s)); err != nil {
			t.Fatal(err)
		}
	}
	if len(names) < 4 {
		t.Errorf("only %d distinct operators used: %v", len(names), names)
	}
}
