package operators

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

// This file contains operators beyond the paper's five — the classic VRPTW
// moves its references catalogue (Bräysy & Gendreau 2005): variable-length
// Or-opt, relocation into a fresh route, and CrossExchange. They are not
// part of All(); compose them with Extended() for experiments on richer
// neighborhoods.

// Extended returns the paper's five operators plus the extension set.
func Extended() []Operator {
	return append(All(), OrOptN{MaxLen: 3}, RelocateNew{}, CrossExchange{MaxLen: 3})
}

// Extension operator tags continue the attribute tag space of operators.go.
const (
	tagOrOptN = iota + 16
	tagRelocateNew
	tagCrossExchange
)

// OrOptN moves a segment of 1..MaxLen consecutive customers to a different
// position in the same route — the general Or-opt, of which the paper's
// two-customer variant is the special case.
type OrOptN struct {
	// MaxLen bounds the segment length (>= 1; 3 is the classic choice).
	MaxLen int
}

// Name implements Operator.
func (o OrOptN) Name() string { return fmt.Sprintf("or-opt-%d", o.maxLen()) }

func (o OrOptN) maxLen() int {
	if o.MaxLen < 1 {
		return 3
	}
	return o.MaxLen
}

// Propose implements Operator.
func (o OrOptN) Propose(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool) {
	for try := 0; try < proposeAttempts; try++ {
		ri := r.Intn(len(s.Routes))
		route := s.Routes[ri]
		length := 1 + r.Intn(o.maxLen())
		if len(route) < length+1 {
			continue
		}
		seg := r.Intn(len(route) - length + 1)
		dst := r.Intn(len(route) - length + 1)
		if dst == seg {
			continue
		}
		c1, c2 := route[seg], route[seg+length-1]
		if !arcOK(in, before(route, seg), after(route, seg+length-1)) {
			continue
		}
		prev := 0
		if dst > 0 {
			prev = remAt(route, seg, length, dst-1)
		}
		if !arcOK(in, prev, c1) {
			continue
		}
		next := 0
		if dst < len(route)-length {
			next = remAt(route, seg, length, dst)
		}
		if !arcOK(in, c2, next) {
			continue
		}
		return MoveData{Kind: KindOrOptN, A: int32(ri), B: int32(seg), C: int32(length), D: int32(dst), E: int32(c1), F: int32(c2)}, true
	}
	return MoveData{}, false
}

func applyOrOptN(in *vrptw.Instance, s *solution.Solution, d MoveData) *solution.Solution {
	ri, seg, length, dst := int(d.A), int(d.B), int(d.C), int(d.D)
	route := s.Routes[ri]
	segment := route[seg : seg+length]
	rem := concat(route[:seg], route[seg+length:])
	nr := concat(rem[:dst], segment, rem[dst:])
	return s.WithRoutes(in, []int{ri}, [][]int{nr})
}

// RelocateNew moves one customer out of a multi-customer route into a
// fresh route of its own. It is the inverse pressure to the paper's
// vehicle-count minimization: it buys slack (shorter tardy routes) at the
// cost of one more vehicle, letting the search repair heavily violated
// solutions.
type RelocateNew struct{}

// Name implements Operator.
func (RelocateNew) Name() string { return "relocate-new" }

// Propose implements Operator.
func (RelocateNew) Propose(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) >= in.Vehicles {
		return MoveData{}, false // fleet exhausted
	}
	for try := 0; try < proposeAttempts; try++ {
		from := r.Intn(len(s.Routes))
		rf := s.Routes[from]
		if len(rf) < 2 {
			continue // moving a singleton would just relabel the route
		}
		fpos := r.Intn(len(rf))
		cust := rf[fpos]
		if !arcOK(in, before(rf, fpos), after(rf, fpos)) {
			continue
		}
		if !arcOK(in, 0, cust) {
			continue
		}
		return MoveData{Kind: KindRelocateNew, A: int32(from), B: int32(fpos), C: int32(cust)}, true
	}
	return MoveData{}, false
}

func applyRelocateNew(in *vrptw.Instance, s *solution.Solution, d MoveData) *solution.Solution {
	from, fpos := int(d.A), int(d.B)
	rf := s.Routes[from]
	nf := concat(rf[:fpos], rf[fpos+1:])
	next := s.WithRoutes(in, []int{from}, [][]int{nf})
	// Append the fresh singleton route.
	routes := append(next.Routes, []int{int(d.C)})
	dist, tard, load := solution.RouteMetrics(in, routes[len(routes)-1])
	next.Routes = routes
	next.Dist = append(next.Dist, dist)
	next.Tard = append(next.Tard, tard)
	next.Load = append(next.Load, load)
	next.Obj.Distance += dist
	next.Obj.Tardiness += tard
	next.Obj.Vehicles++
	return next
}

// CrossExchange swaps two segments of up to MaxLen consecutive customers
// between different routes (Taillard et al. 1997), generalizing the
// paper's Exchange from single customers to segments.
type CrossExchange struct {
	// MaxLen bounds both segment lengths (>= 1; 3 is the classic choice).
	MaxLen int
}

// Name implements Operator.
func (c CrossExchange) Name() string { return fmt.Sprintf("cross-exchange-%d", c.maxLen()) }

func (c CrossExchange) maxLen() int {
	if c.MaxLen < 1 {
		return 3
	}
	return c.MaxLen
}

// Propose implements Operator.
func (c CrossExchange) Propose(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool) {
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
		l1 := 1 + r.Intn(c.maxLen())
		l2 := 1 + r.Intn(c.maxLen())
		if len(a) < l1 || len(b) < l2 {
			continue
		}
		p1 := r.Intn(len(a) - l1 + 1)
		p2 := r.Intn(len(b) - l2 + 1)
		load1 := s.Load[r1] - segLoad(in, a[p1:p1+l1]) + segLoad(in, b[p2:p2+l2])
		load2 := s.Load[r2] - segLoad(in, b[p2:p2+l2]) + segLoad(in, a[p1:p1+l1])
		if load1 > in.Capacity || load2 > in.Capacity {
			continue
		}
		// New arcs around both transplanted segments.
		if !arcOK(in, before(a, p1), b[p2]) || !arcOK(in, b[p2+l2-1], after(a, p1+l1-1)) {
			continue
		}
		if !arcOK(in, before(b, p2), a[p1]) || !arcOK(in, a[p1+l1-1], after(b, p2+l2-1)) {
			continue
		}
		return MoveData{Kind: KindCrossExchange, A: int32(r1), B: int32(p1), C: int32(l1), D: int32(r2), E: int32(p2), F: int32(l2), G: int32(a[p1]), H: int32(b[p2])}, true
	}
	return MoveData{}, false
}

func segLoad(in *vrptw.Instance, seg []int) float64 {
	var l float64
	for _, c := range seg {
		l += in.Sites[c].Demand
	}
	return l
}

func applyCrossExchange(in *vrptw.Instance, s *solution.Solution, d MoveData) *solution.Solution {
	r1, p1, l1, r2, p2, l2 := int(d.A), int(d.B), int(d.C), int(d.D), int(d.E), int(d.F)
	a, b := s.Routes[r1], s.Routes[r2]
	na := concat(a[:p1], b[p2:p2+l2], a[p1+l1:])
	nb := concat(b[:p2], a[p1:p1+l1], b[p2+l2:])
	return s.WithRoutes(in, []int{r1, r2}, [][]int{na, nb})
}
