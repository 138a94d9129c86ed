package operators

import (
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

// Relocate moves one customer from its route to a position in another
// route — Osman's (1,0) λ-exchange. Emptied donor routes disappear, which
// is the search's only way to reduce the vehicle count.
type Relocate struct{}

// Name implements Operator.
func (Relocate) Name() string { return "relocate" }

// Propose implements Operator.
func (Relocate) Propose(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) < 2 {
		return MoveData{}, false
	}
	for try := 0; try < proposeAttempts; try++ {
		from := r.Intn(len(s.Routes))
		to := r.Intn(len(s.Routes))
		if from == to {
			continue
		}
		rf, rt := s.Routes[from], s.Routes[to]
		fpos := r.Intn(len(rf))
		cust := rf[fpos]
		if s.Load[to]+in.Sites[cust].Demand > in.Capacity {
			continue
		}
		tpos := r.Intn(len(rt) + 1)
		// Arcs created: gap closure in donor, insertion arcs in receiver.
		if !arcOK(in, before(rf, fpos), after(rf, fpos)) {
			continue
		}
		if !arcOK(in, before(rt, tpos), cust) {
			continue
		}
		next := 0
		if tpos < len(rt) {
			next = rt[tpos]
		}
		if !arcOK(in, cust, next) {
			continue
		}
		return MoveData{Kind: KindRelocate, A: int32(from), B: int32(fpos), C: int32(to), D: int32(tpos), E: int32(cust)}, true
	}
	return MoveData{}, false
}

func applyRelocate(in *vrptw.Instance, s *solution.Solution, d MoveData) *solution.Solution {
	from, fpos, to, tpos, cust := int(d.A), int(d.B), int(d.C), int(d.D), int(d.E)
	rf, rt := s.Routes[from], s.Routes[to]
	nf := concat(rf[:fpos], rf[fpos+1:])
	nt := concat(rt[:tpos], []int{cust}, rt[tpos:])
	return s.WithRoutes(in, []int{from, to}, [][]int{nf, nt})
}

// Exchange swaps two customers between different routes — Osman's (1,1)
// λ-exchange.
type Exchange struct{}

// Name implements Operator.
func (Exchange) Name() string { return "exchange" }

// Propose implements Operator.
func (Exchange) Propose(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) < 2 {
		return MoveData{}, false
	}
	for try := 0; try < proposeAttempts; try++ {
		r1 := r.Intn(len(s.Routes))
		r2 := r.Intn(len(s.Routes))
		if r1 == r2 {
			continue
		}
		a, b := s.Routes[r1], s.Routes[r2]
		p1 := r.Intn(len(a))
		p2 := r.Intn(len(b))
		c1, c2 := a[p1], b[p2]
		d1, d2 := in.Sites[c1].Demand, in.Sites[c2].Demand
		if s.Load[r1]-d1+d2 > in.Capacity || s.Load[r2]-d2+d1 > in.Capacity {
			continue
		}
		if !arcOK(in, before(a, p1), c2) || !arcOK(in, c2, after(a, p1)) {
			continue
		}
		if !arcOK(in, before(b, p2), c1) || !arcOK(in, c1, after(b, p2)) {
			continue
		}
		return MoveData{Kind: KindExchange, A: int32(r1), B: int32(p1), C: int32(r2), D: int32(p2), E: int32(c1), F: int32(c2)}, true
	}
	return MoveData{}, false
}

func applyExchange(in *vrptw.Instance, s *solution.Solution, d MoveData) *solution.Solution {
	r1, p1, r2, p2 := int(d.A), int(d.B), int(d.C), int(d.D)
	a := concat(s.Routes[r1])
	b := concat(s.Routes[r2])
	a[p1], b[p2] = int(d.F), int(d.E)
	return s.WithRoutes(in, []int{r1, r2}, [][]int{a, b})
}

// TwoOpt reverses a contiguous segment of a single route (or the whole
// route).
type TwoOpt struct{}

// Name implements Operator.
func (TwoOpt) Name() string { return "2-opt" }

// Propose implements Operator.
func (TwoOpt) Propose(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool) {
	for try := 0; try < proposeAttempts; try++ {
		ri := r.Intn(len(s.Routes))
		route := s.Routes[ri]
		if len(route) < 2 {
			continue
		}
		i := r.Intn(len(route) - 1)
		j := i + 1 + r.Intn(len(route)-i-1)
		// Arcs created: (before(i), c_j) and (c_i, after(j)).
		if !arcOK(in, before(route, i), route[j]) {
			continue
		}
		if !arcOK(in, route[i], after(route, j)) {
			continue
		}
		return MoveData{Kind: KindTwoOpt, A: int32(ri), B: int32(i), C: int32(j), D: int32(route[i]), E: int32(route[j])}, true
	}
	return MoveData{}, false
}

// applyTwoOpt reverses positions i..j (inclusive, i < j) of the route.
func applyTwoOpt(in *vrptw.Instance, s *solution.Solution, d MoveData) *solution.Solution {
	ri := int(d.A)
	nr := concat(s.Routes[ri])
	for a, b := int(d.B), int(d.C); a < b; a, b = a+1, b-1 {
		nr[a], nr[b] = nr[b], nr[a]
	}
	return s.WithRoutes(in, []int{ri}, [][]int{nr})
}

// TwoOptStar interchanges the tails of two routes: the first part of one
// route continues with the second part of the other and vice versa. Cutting
// at a route's end merges routes (and can free a vehicle).
type TwoOptStar struct{}

// Name implements Operator.
func (TwoOptStar) Name() string { return "2-opt*" }

// Propose implements Operator.
func (TwoOptStar) Propose(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) < 2 {
		return MoveData{}, false
	}
	for try := 0; try < proposeAttempts; try++ {
		r1 := r.Intn(len(s.Routes))
		r2 := r.Intn(len(s.Routes))
		if r1 == r2 {
			continue
		}
		a, b := s.Routes[r1], s.Routes[r2]
		p1 := r.Intn(len(a) + 1)
		p2 := r.Intn(len(b) + 1)
		if p1 == 0 && p2 == 0 || p1 == len(a) && p2 == len(b) {
			continue // relabels routes without changing the solution
		}
		load1 := prefixLoad(in, a, p1) + s.Load[r2] - prefixLoad(in, b, p2)
		load2 := prefixLoad(in, b, p2) + s.Load[r1] - prefixLoad(in, a, p1)
		if load1 > in.Capacity || load2 > in.Capacity {
			continue
		}
		// New arcs: (a[p1-1] or depot) -> (b[p2] or depot) and vice versa.
		tail1head := 0
		if p2 < len(b) {
			tail1head = b[p2]
		}
		tail2head := 0
		if p1 < len(a) {
			tail2head = a[p1]
		}
		if !arcOK(in, before(a, p1), tail1head) || !arcOK(in, before(b, p2), tail2head) {
			continue
		}
		return MoveData{Kind: KindTwoOptStar, A: int32(r1), B: int32(p1), C: int32(r2), D: int32(p2), E: int32(before(a, p1)), F: int32(before(b, p2))}, true
	}
	return MoveData{}, false
}

func prefixLoad(in *vrptw.Instance, route []int, p int) float64 {
	var l float64
	for _, c := range route[:p] {
		l += in.Sites[c].Demand
	}
	return l
}

// applyTwoOptStar keeps route[:p] of both routes and swaps their tails.
func applyTwoOptStar(in *vrptw.Instance, s *solution.Solution, d MoveData) *solution.Solution {
	r1, p1, r2, p2 := int(d.A), int(d.B), int(d.C), int(d.D)
	a, b := s.Routes[r1], s.Routes[r2]
	na := concat(a[:p1], b[p2:])
	nb := concat(b[:p2], a[p1:])
	return s.WithRoutes(in, []int{r1, r2}, [][]int{na, nb})
}

// OrOpt moves two consecutive customers to a different place in the same
// route.
type OrOpt struct{}

// Name implements Operator.
func (OrOpt) Name() string { return "or-opt" }

// Propose implements Operator.
func (OrOpt) Propose(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool) {
	for try := 0; try < proposeAttempts; try++ {
		ri := r.Intn(len(s.Routes))
		route := s.Routes[ri]
		if len(route) < 3 {
			continue
		}
		seg := r.Intn(len(route) - 1) // segment = route[seg], route[seg+1]
		dst := r.Intn(len(route) - 1) // position in the len-2 remainder
		if dst == seg {
			continue // would reinsert in place
		}
		c1, c2 := route[seg], route[seg+1]
		// Arcs created: gap closure and the two insertion arcs. The
		// insertion neighbors are read off the original route (remAt)
		// instead of building the remainder — this runs on every attempt
		// of the innermost propose loop.
		if !arcOK(in, before(route, seg), after(route, seg+1)) {
			continue
		}
		prev := 0
		if dst > 0 {
			prev = remAt(route, seg, 2, dst-1)
		}
		if !arcOK(in, prev, c1) {
			continue
		}
		next := 0
		if dst < len(route)-2 {
			next = remAt(route, seg, 2, dst)
		}
		if !arcOK(in, c2, next) {
			continue
		}
		return MoveData{Kind: KindOrOpt, A: int32(ri), B: int32(seg), C: int32(dst), D: int32(c1), E: int32(c2)}, true
	}
	return MoveData{}, false
}

// applyOrOpt moves the length-2 segment at seg to position dst of the
// route with the segment removed.
func applyOrOpt(in *vrptw.Instance, s *solution.Solution, d MoveData) *solution.Solution {
	ri, seg, dst := int(d.A), int(d.B), int(d.C)
	route := s.Routes[ri]
	rem := concat(route[:seg], route[seg+2:])
	nr := concat(rem[:dst], []int{int(d.D), int(d.E)}, rem[dst:])
	return s.WithRoutes(in, []int{ri}, [][]int{nr})
}
