package operators

import (
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

// This file is the granular side of the candidate engine: every operator
// gets a proposal path that draws only moves whose key created arc
// (i -> j) lies in the instance's sparse k-nearest graph
// (vrptw.NeighborLists). A draw picks a random site i, scans i's granular
// successor list from a random offset, locates the endpoints in the
// current solution through the PosIndex, and builds the one move of its
// operator that creates the first admissible arc i -> j — re-checking the
// remaining capacity and arc conditions exactly as the full path does, so
// every granular move is a valid full-neighborhood move with an identical
// delta.

// PosIndex maps every customer of one solution to its (route, position)
// pair so granular proposals can locate an arc endpoint in O(1). The
// storage is reused across solutions, and rebinding is incremental: route
// slices are immutable once attached to a solution, so a route that sits
// at the same index as in the last indexed solution, as the same slice,
// still has correct entries, and only the customers of the other routes
// are rewritten. A one-move child of the indexed solution rewrites one or
// two routes, plus those that shifted down a slot when a route emptied.
// The index remembers the *vrptw.Instance it was built against and
// rebuilds in O(N) when that changes.
type PosIndex struct {
	sol   *solution.Solution
	in    *vrptw.Instance
	route []int32
	pos   []int32
}

// Reset binds the index to s, rewriting only the entries of routes that
// differ from the last indexed solution's route at the same index.
func (px *PosIndex) Reset(in *vrptw.Instance, s *solution.Solution) {
	if px.sol == s && px.in == in {
		return
	}
	var prev [][]int
	if px.in == in {
		prev = px.sol.Routes
	} else {
		n := in.N() + 1
		if cap(px.route) < n {
			px.route = make([]int32, n)
			px.pos = make([]int32, n)
		}
		px.route = px.route[:n]
		px.pos = px.pos[:n]
		px.in = in
	}
	for ri, route := range s.Routes {
		if ri < len(prev) && solution.SameRoute(prev[ri], route) {
			continue
		}
		for pi, c := range route {
			px.route[c] = int32(ri)
			px.pos[c] = int32(pi)
		}
	}
	px.sol = s
}

// Locate returns the route index and position of customer c. Every
// customer appears in exactly one route, so all entries are live.
func (px *PosIndex) Locate(c int) (route, pos int) {
	return int(px.route[c]), int(px.pos[c])
}

// RouteOf returns only the route index of customer c — the scan loops'
// cheap prefilter before committing to a full Locate.
func (px *PosIndex) RouteOf(c int) int { return int(px.route[c]) }

// intraAttempts bounds the outer draw loop of the intra-route proposers
// (2-opt, Or-opt). A k-nearest list rarely holds same-route members when
// routes are short relative to the fleet, so exhausting proposeAttempts
// full scans before falling back would dominate the sweep; the full
// proposal path is cheap for these operators (it draws the route first),
// so bailing out early costs little bias and a lot less time.
const intraAttempts = 6

// granularProposer is the granular proposal path of one operator. All
// operators in this package implement it; an operator without one simply
// keeps proposing from the full neighborhood.
type granularProposer interface {
	proposeGranular(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool)
}

// arcScan iterates one customer's granular successor list starting at a
// random offset. Proposers draw c1 once per attempt and scan its list for
// the first admissible c2 — a success probability of 1-(1-p)^k per attempt
// instead of p, which keeps fallbacks to the full proposal path rare even
// for same-route operators whose per-arc hit rate is low.
type arcScan struct {
	nbrs []int32
	off  int
	t    int
}

// drawC1 picks a uniform random customer and positions the scan at a
// random offset of its neighbor list. ok is false when the list is empty
// (every admissible arc from c1 misses its deadline).
func drawC1(in *vrptw.Instance, nl *vrptw.NeighborLists, r *rng.Rand) (c1 int, sc arcScan, ok bool) {
	c1 = 1 + r.Intn(in.N())
	nbrs := nl.Of(c1)
	if len(nbrs) == 0 {
		return c1, arcScan{}, false
	}
	return c1, arcScan{nbrs: nbrs, off: r.Intn(len(nbrs))}, true
}

// next yields the scan's next candidate successor, wrapping around the
// list once.
func (sc *arcScan) next() (c2 int, ok bool) {
	if sc.t >= len(sc.nbrs) {
		return 0, false
	}
	i := sc.off + sc.t
	if i >= len(sc.nbrs) {
		i -= len(sc.nbrs)
	}
	sc.t++
	return int(sc.nbrs[i]), true
}

// proposeGranular implements granularProposer: relocate c2 out of its
// route to directly after c1 in another route, creating the arc c1 -> c2.
func (Relocate) proposeGranular(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) < 2 {
		return MoveData{}, false
	}
	for try := 0; try < proposeAttempts; try++ {
		c1, sc, ok := drawC1(in, nl, r)
		if !ok {
			continue
		}
		r1, p1 := px.Locate(c1)
		rt := s.Routes[r1]
		tpos := p1 + 1
		next := 0
		if tpos < len(rt) {
			next = rt[tpos]
		}
		spare := in.Capacity - s.Load[r1]
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			if px.RouteOf(c2) == r1 {
				continue
			}
			r2, p2 := px.Locate(c2)
			if in.Sites[c2].Demand > spare {
				continue
			}
			rf := s.Routes[r2]
			if !arcOK(in, before(rf, p2), after(rf, p2)) {
				continue // gap closure in the donor
			}
			// The arc c1 -> c2 is admissible by list membership; check the
			// second insertion arc.
			if !arcOK(in, c2, next) {
				continue
			}
			return MoveData{Kind: KindRelocate, A: int32(r2), B: int32(p2), C: int32(r1), D: int32(tpos), E: int32(c2)}, true
		}
	}
	return MoveData{}, false
}

// proposeGranular implements granularProposer: swap c1's successor with
// c2 in another route, so the arc c1 -> c2 is created in c1's route.
func (Exchange) proposeGranular(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) < 2 {
		return MoveData{}, false
	}
	for try := 0; try < proposeAttempts; try++ {
		c1, sc, ok := drawC1(in, nl, r)
		if !ok {
			continue
		}
		r1, p1 := px.Locate(c1)
		a := s.Routes[r1]
		q := p1 + 1
		if q >= len(a) {
			continue // c1 has no successor to swap out
		}
		x := a[q]
		ax := after(a, q)
		dx := in.Sites[x].Demand
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			if px.RouteOf(c2) == r1 {
				continue
			}
			r2, p2 := px.Locate(c2)
			dc := in.Sites[c2].Demand
			if s.Load[r1]-dx+dc > in.Capacity || s.Load[r2]-dc+dx > in.Capacity {
				continue
			}
			// c1 -> c2 is the list arc; the other three created arcs are
			// checked as on the full path.
			if !arcOK(in, c2, ax) {
				continue
			}
			b := s.Routes[r2]
			if !arcOK(in, before(b, p2), x) || !arcOK(in, x, after(b, p2)) {
				continue
			}
			return MoveData{Kind: KindExchange, A: int32(r1), B: int32(q), C: int32(r2), D: int32(p2), E: int32(x), F: int32(c2)}, true
		}
	}
	return MoveData{}, false
}

// proposeGranular implements granularProposer: reverse the segment between
// c1 and c2 of one route, creating the arc c1 -> c2.
func (TwoOpt) proposeGranular(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	for try := 0; try < intraAttempts; try++ {
		c1, sc, ok := drawC1(in, nl, r)
		if !ok {
			continue
		}
		r1, p1 := px.Locate(c1)
		i := p1 + 1
		route := s.Routes[r1]
		if i >= len(route) {
			continue // reversing an empty tail is a no-op
		}
		ri := route[i]
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			if px.RouteOf(c2) != r1 {
				continue
			}
			_, j := px.Locate(c2)
			if j <= i {
				continue // needs a non-empty segment after c1 ending at c2
			}
			// Reversing route[i..j] creates (c1 -> c2) — the list arc — and
			// (route[i] -> after(j)).
			if !arcOK(in, ri, after(route, j)) {
				continue
			}
			return MoveData{Kind: KindTwoOpt, A: int32(r1), B: int32(i), C: int32(j), D: int32(ri), E: int32(route[j])}, true
		}
	}
	return MoveData{}, false
}

// proposeGranular implements granularProposer: cut after c1 and before c2
// in another route and swap the tails, creating the arc c1 -> c2.
func (TwoOptStar) proposeGranular(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) < 2 {
		return MoveData{}, false
	}
	for try := 0; try < proposeAttempts; try++ {
		c1, sc, ok := drawC1(in, nl, r)
		if !ok {
			continue
		}
		r1, pc1 := px.Locate(c1)
		a := s.Routes[r1]
		p1 := pc1 + 1
		head1 := prefixLoad(in, a, p1)
		tail2head := 0
		if p1 < len(a) {
			tail2head = a[p1]
		}
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			if px.RouteOf(c2) == r1 {
				continue
			}
			r2, p2 := px.Locate(c2)
			b := s.Routes[r2]
			head2 := prefixLoad(in, b, p2)
			load1 := head1 + s.Load[r2] - head2
			load2 := head2 + s.Load[r1] - head1
			if load1 > in.Capacity || load2 > in.Capacity {
				continue
			}
			// c1 -> c2 is the list arc; check the reciprocal new arc.
			if !arcOK(in, before(b, p2), tail2head) {
				continue
			}
			return MoveData{Kind: KindTwoOptStar, A: int32(r1), B: int32(p1), C: int32(r2), D: int32(p2), E: int32(c1), F: int32(before(b, p2))}, true
		}
	}
	return MoveData{}, false
}

// proposeGranular implements granularProposer: move the two-customer
// segment starting at c2 to directly after c1 in the same route, creating
// the arc c1 -> c2.
func (OrOpt) proposeGranular(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	for try := 0; try < intraAttempts; try++ {
		c1, sc, ok := drawC1(in, nl, r)
		if !ok {
			continue
		}
		r1, pc1 := px.Locate(c1)
		route := s.Routes[r1]
		if len(route) < 3 {
			continue
		}
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			if px.RouteOf(c2) != r1 {
				continue
			}
			_, seg := px.Locate(c2)
			if seg > len(route)-2 {
				continue
			}
			if pc1 == seg || pc1 == seg+1 {
				continue // c1 inside the segment
			}
			// dst is the insertion position in remainder coordinates such
			// that the segment lands directly after c1.
			var dst int
			if pc1 < seg {
				dst = pc1 + 1
			} else {
				dst = pc1 - 1
			}
			if dst == seg {
				continue // would reinsert in place
			}
			if !arcOK(in, before(route, seg), after(route, seg+1)) {
				continue // gap closure
			}
			// c1 -> c2 is the list arc; check the segment's exit arc.
			next := 0
			if dst < len(route)-2 {
				next = remAt(route, seg, 2, dst)
			}
			if !arcOK(in, route[seg+1], next) {
				continue
			}
			return MoveData{Kind: KindOrOpt, A: int32(r1), B: int32(seg), C: int32(dst), D: int32(c2), E: int32(route[seg+1])}, true
		}
	}
	return MoveData{}, false
}

// proposeGranular implements granularProposer: the general Or-opt — move
// the segment of random length starting at c2 to directly after c1 in the
// same route, creating the arc c1 -> c2.
func (o OrOptN) proposeGranular(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	for try := 0; try < intraAttempts; try++ {
		length := 1 + r.Intn(o.maxLen())
		c1, sc, ok := drawC1(in, nl, r)
		if !ok {
			continue
		}
		r1, pc1 := px.Locate(c1)
		route := s.Routes[r1]
		if len(route) < length+1 {
			continue
		}
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			if px.RouteOf(c2) != r1 {
				continue
			}
			_, seg := px.Locate(c2)
			if seg > len(route)-length {
				continue
			}
			if pc1 >= seg && pc1 < seg+length {
				continue // c1 inside the segment
			}
			var dst int
			if pc1 < seg {
				dst = pc1 + 1
			} else {
				dst = pc1 - length + 1
			}
			if dst == seg {
				continue
			}
			if !arcOK(in, before(route, seg), after(route, seg+length-1)) {
				continue
			}
			next := 0
			if dst < len(route)-length {
				next = remAt(route, seg, length, dst)
			}
			if !arcOK(in, route[seg+length-1], next) {
				continue
			}
			return MoveData{Kind: KindOrOptN, A: int32(r1), B: int32(seg), C: int32(length), D: int32(dst), E: int32(c2), F: int32(route[seg+length-1])}, true
		}
	}
	return MoveData{}, false
}

// proposeGranular implements granularProposer: relocate into a fresh route
// creates the arc depot -> cust, so it draws from the depot's list.
func (RelocateNew) proposeGranular(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) >= in.Vehicles {
		return MoveData{}, false // fleet exhausted
	}
	depot := nl.Of(0)
	if len(depot) == 0 {
		return MoveData{}, false
	}
	sc := arcScan{nbrs: depot, off: r.Intn(len(depot))}
	for {
		c2, more := sc.next()
		if !more {
			break
		}
		from, fpos := px.Locate(c2)
		rf := s.Routes[from]
		if len(rf) < 2 {
			continue // moving a singleton would just relabel the route
		}
		// depot -> cust is the list arc; check the donor's gap closure.
		if !arcOK(in, before(rf, fpos), after(rf, fpos)) {
			continue
		}
		return MoveData{Kind: KindRelocateNew, A: int32(from), B: int32(fpos), C: int32(c2)}, true
	}
	return MoveData{}, false
}

// proposeGranular implements granularProposer: swap the segment after c1
// with the segment starting at c2 of another route, creating the arc
// c1 -> c2.
func (c CrossExchange) proposeGranular(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) < 2 {
		return MoveData{}, false
	}
	for try := 0; try < proposeAttempts; try++ {
		c1, sc, ok := drawC1(in, nl, r)
		if !ok {
			continue
		}
		l1 := 1 + r.Intn(c.maxLen())
		l2 := 1 + r.Intn(c.maxLen())
		r1, pc1 := px.Locate(c1)
		a := s.Routes[r1]
		p1 := pc1 + 1
		if p1+l1 > len(a) {
			continue
		}
		seg1 := segLoad(in, a[p1:p1+l1])
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			if px.RouteOf(c2) == r1 {
				continue
			}
			r2, p2 := px.Locate(c2)
			b := s.Routes[r2]
			if p2+l2 > len(b) {
				continue
			}
			seg2 := segLoad(in, b[p2:p2+l2])
			load1 := s.Load[r1] - seg1 + seg2
			load2 := s.Load[r2] - seg2 + seg1
			if load1 > in.Capacity || load2 > in.Capacity {
				continue
			}
			// c1 -> c2 is the list arc; check the remaining three new arcs.
			if !arcOK(in, b[p2+l2-1], after(a, p1+l1-1)) {
				continue
			}
			if !arcOK(in, before(b, p2), a[p1]) || !arcOK(in, a[p1+l1-1], after(b, p2+l2-1)) {
				continue
			}
			return MoveData{Kind: KindCrossExchange, A: int32(r1), B: int32(p1), C: int32(l1), D: int32(r2), E: int32(p2), F: int32(l2), G: int32(a[p1]), H: int32(b[p2])}, true
		}
	}
	return MoveData{}, false
}
