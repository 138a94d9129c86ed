package operators

// Delta implementations of every move kind: the objective change is computed
// from the proposing solution's schedule cache by splicing cached route
// segments (solution.Eval.SpliceMetrics) instead of materializing routes.
// Each delta subtracts the touched routes' cached distance/tardiness from
// the solution objectives and adds the spliced replacements; vehicle-count
// changes follow from emptied (or created) routes. Apply remains the
// materialization path and must agree with Delta to within floating-point
// noise — the property tests in delta_test.go enforce 1e-9.

import (
	"repro/internal/solution"
	"repro/internal/vrptw"
)

// spliceInto subtracts the cached metrics of route r from obj and adds the
// metrics of the spliced replacement segs; an empty replacement (no segs)
// removes the route from the vehicle count.
func spliceInto(obj *solution.Objectives, in *vrptw.Instance, s *solution.Solution, e *solution.Eval, r int, segs ...solution.Seg) {
	obj.Distance -= s.Dist[r]
	obj.Tardiness -= s.Tard[r]
	if len(segs) == 0 {
		obj.Vehicles--
		return
	}
	d, t := e.SpliceMetrics(in, segs...)
	obj.Distance += d
	obj.Tardiness += t
}

func deltaRelocate(in *vrptw.Instance, s *solution.Solution, e *solution.Eval, d MoveData) solution.Objectives {
	from, fpos, to, tpos, cust := int(d.A), int(d.B), int(d.C), int(d.D), int(d.E)
	rf, rt := s.Routes[from], s.Routes[to]
	obj := s.Obj
	if len(rf) == 1 {
		spliceInto(&obj, in, s, e, from)
	} else {
		spliceInto(&obj, in, s, e, from,
			solution.Piece(from, 0, fpos),
			solution.Piece(from, fpos+1, len(rf)))
	}
	spliceInto(&obj, in, s, e, to,
		solution.Piece(to, 0, tpos),
		solution.Single(cust),
		solution.Piece(to, tpos, len(rt)))
	return obj
}

func deltaExchange(in *vrptw.Instance, s *solution.Solution, e *solution.Eval, d MoveData) solution.Objectives {
	r1, p1, r2, p2, c1, c2 := int(d.A), int(d.B), int(d.C), int(d.D), int(d.E), int(d.F)
	a, b := s.Routes[r1], s.Routes[r2]
	obj := s.Obj
	spliceInto(&obj, in, s, e, r1,
		solution.Piece(r1, 0, p1),
		solution.Single(c2),
		solution.Piece(r1, p1+1, len(a)))
	spliceInto(&obj, in, s, e, r2,
		solution.Piece(r2, 0, p2),
		solution.Single(c1),
		solution.Piece(r2, p2+1, len(b)))
	return obj
}

func deltaTwoOpt(in *vrptw.Instance, s *solution.Solution, e *solution.Eval, d MoveData) solution.Objectives {
	ri, i, j := int(d.A), int(d.B), int(d.C)
	obj := s.Obj
	spliceInto(&obj, in, s, e, ri,
		solution.Piece(ri, 0, i),
		solution.ReversedPiece(ri, i, j+1),
		solution.Piece(ri, j+1, len(s.Routes[ri])))
	return obj
}

func deltaTwoOptStar(in *vrptw.Instance, s *solution.Solution, e *solution.Eval, d MoveData) solution.Objectives {
	r1, p1, r2, p2 := int(d.A), int(d.B), int(d.C), int(d.D)
	a, b := s.Routes[r1], s.Routes[r2]
	obj := s.Obj
	if p1 == 0 && p2 == len(b) {
		spliceInto(&obj, in, s, e, r1) // a's head and b's tail are both empty
	} else {
		spliceInto(&obj, in, s, e, r1,
			solution.Piece(r1, 0, p1),
			solution.Piece(r2, p2, len(b)))
	}
	if p2 == 0 && p1 == len(a) {
		spliceInto(&obj, in, s, e, r2)
	} else {
		spliceInto(&obj, in, s, e, r2,
			solution.Piece(r2, 0, p2),
			solution.Piece(r1, p1, len(a)))
	}
	return obj
}

// orOptDelta computes the delta of moving the length-l segment starting at
// seg to position dst of the remainder (both Or-opt kinds), expressed
// entirely in original route coordinates so every piece can come from the
// schedule cache.
func orOptDelta(in *vrptw.Instance, s *solution.Solution, e *solution.Eval, route, seg, l, dst int) solution.Objectives {
	k := len(s.Routes[route])
	obj := s.Obj
	if dst < seg {
		spliceInto(&obj, in, s, e, route,
			solution.Piece(route, 0, dst),
			solution.Piece(route, seg, seg+l),
			solution.Piece(route, dst, seg),
			solution.Piece(route, seg+l, k))
	} else {
		spliceInto(&obj, in, s, e, route,
			solution.Piece(route, 0, seg),
			solution.Piece(route, seg+l, dst+l),
			solution.Piece(route, seg, seg+l),
			solution.Piece(route, dst+l, k))
	}
	return obj
}

func deltaRelocateNew(in *vrptw.Instance, s *solution.Solution, e *solution.Eval, d MoveData) solution.Objectives {
	from, fpos, cust := int(d.A), int(d.B), int(d.C)
	obj := s.Obj
	spliceInto(&obj, in, s, e, from,
		solution.Piece(from, 0, fpos),
		solution.Piece(from, fpos+1, len(s.Routes[from])))
	dist, tard := e.SpliceMetrics(in, solution.Single(cust))
	obj.Distance += dist
	obj.Tardiness += tard
	obj.Vehicles++
	return obj
}

func deltaCrossExchange(in *vrptw.Instance, s *solution.Solution, e *solution.Eval, d MoveData) solution.Objectives {
	r1, p1, l1, r2, p2, l2 := int(d.A), int(d.B), int(d.C), int(d.D), int(d.E), int(d.F)
	a, b := s.Routes[r1], s.Routes[r2]
	obj := s.Obj
	spliceInto(&obj, in, s, e, r1,
		solution.Piece(r1, 0, p1),
		solution.Piece(r2, p2, p2+l2),
		solution.Piece(r1, p1+l1, len(a)))
	spliceInto(&obj, in, s, e, r2,
		solution.Piece(r2, 0, p2),
		solution.Piece(r1, p1, p1+l1),
		solution.Piece(r2, p2+l2, len(b)))
	return obj
}
