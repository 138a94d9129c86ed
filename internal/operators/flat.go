package operators

import (
	"fmt"

	"repro/internal/solution"
	"repro/internal/tabu"
	"repro/internal/vrptw"
)

// This file is the move encoding of the candidate engine. A move is a
// plain tagged union: one fixed-size struct, no pointers, storable in
// reusable slices, so a sweep of 200 candidates per iteration allocates
// nothing. Apply, Delta and Attribute dispatch on the kind to one function
// per kind that reads the parameter fields directly.

// MoveKind discriminates the MoveData union. KindNone is the zero value
// and marks "no move".
type MoveKind uint8

const (
	KindNone MoveKind = iota
	KindRelocate
	KindExchange
	KindTwoOpt
	KindTwoOptStar
	KindOrOpt
	KindOrOptN
	KindRelocateNew
	KindCrossExchange
)

// NumKinds is the length of an array indexed by MoveKind.
const NumKinds = int(KindCrossExchange) + 1

// MoveData is one neighborhood move. The parameter fields A..H are
// interpreted per kind:
//
//	KindRelocate:      A=from  B=fpos C=to     D=tpos E=cust
//	KindExchange:      A=r1    B=p1   C=r2     D=p2   E=c1 F=c2
//	KindTwoOpt:        A=route B=i    C=j      D=ci   E=cj
//	KindTwoOptStar:    A=r1    B=p1   C=r2     D=p2   E=a1 F=a2
//	KindOrOpt:         A=route B=seg  C=dst    D=c1   E=c2
//	KindOrOptN:        A=route B=seg  C=length D=dst  E=c1 F=c2
//	KindRelocateNew:   A=from  B=fpos C=cust
//	KindCrossExchange: A=r1    B=p1   C=l1     D=r2   E=p2 F=l2 G=a1 H=a2
type MoveData struct {
	Kind                   MoveKind
	A, B, C, D, E, F, G, H int32
}

// Apply materializes the move on s, the same solution it was proposed on,
// returning a new evaluated solution. s is not modified.
func (d MoveData) Apply(in *vrptw.Instance, s *solution.Solution) *solution.Solution {
	switch d.Kind {
	case KindRelocate:
		return applyRelocate(in, s, d)
	case KindExchange:
		return applyExchange(in, s, d)
	case KindTwoOpt:
		return applyTwoOpt(in, s, d)
	case KindTwoOptStar:
		return applyTwoOptStar(in, s, d)
	case KindOrOpt:
		return applyOrOpt(in, s, d)
	case KindOrOptN:
		return applyOrOptN(in, s, d)
	case KindRelocateNew:
		return applyRelocateNew(in, s, d)
	case KindCrossExchange:
		return applyCrossExchange(in, s, d)
	}
	panic(fmt.Sprintf("operators: Apply on MoveData kind %d", d.Kind))
}

// Delta returns the objectives of the solution Apply would produce,
// agreeing with it to within floating-point noise (well below 1e-9), in
// time proportional to the changed segments rather than the touched
// routes. e must be the schedule cache of s. The second result reports
// whether the delta could be computed; callers fall back to Apply when it
// is false.
func (d MoveData) Delta(in *vrptw.Instance, s *solution.Solution, e *solution.Eval) (solution.Objectives, bool) {
	switch d.Kind {
	case KindRelocate:
		return deltaRelocate(in, s, e, d), true
	case KindExchange:
		return deltaExchange(in, s, e, d), true
	case KindTwoOpt:
		return deltaTwoOpt(in, s, e, d), true
	case KindTwoOptStar:
		return deltaTwoOptStar(in, s, e, d), true
	case KindOrOpt:
		return orOptDelta(in, s, e, int(d.A), int(d.B), 2, int(d.C)), true
	case KindOrOptN:
		return orOptDelta(in, s, e, int(d.A), int(d.B), int(d.C), int(d.D)), true
	case KindRelocateNew:
		return deltaRelocateNew(in, s, e, d), true
	case KindCrossExchange:
		return deltaCrossExchange(in, s, e, d), true
	}
	panic(fmt.Sprintf("operators: Delta on MoveData kind %d", d.Kind))
}

// Attribute is the move's tabu identity: the kind's tag mixed with the
// customers the move touches (unordered pairs are sorted first).
func (d MoveData) Attribute() tabu.Attribute {
	switch d.Kind {
	case KindRelocate:
		return attribute(tagRelocate, int(d.E), 0)
	case KindExchange:
		return pairAttribute(tagExchange, d.E, d.F)
	case KindTwoOpt:
		return pairAttribute(tagTwoOpt, d.D, d.E)
	case KindTwoOptStar:
		return pairAttribute(tagTwoOptStar, d.E, d.F)
	case KindOrOpt:
		return attribute(tagOrOpt, int(d.D), int(d.E))
	case KindOrOptN:
		return attribute(tagOrOptN, int(d.E), int(d.F))
	case KindRelocateNew:
		return attribute(tagRelocateNew, int(d.C), 0)
	case KindCrossExchange:
		return pairAttribute(tagCrossExchange, d.G, d.H)
	}
	return 0
}

// pairAttribute is attribute over an unordered customer pair.
func pairAttribute(op uint64, a, b int32) tabu.Attribute {
	if a > b {
		a, b = b, a
	}
	return attribute(op, int(a), int(b))
}

// kindOf returns the move kind op proposes; KindNone for an operator
// defined outside this package.
func kindOf(op Operator) MoveKind {
	switch op.(type) {
	case Relocate:
		return KindRelocate
	case Exchange:
		return KindExchange
	case TwoOpt:
		return KindTwoOpt
	case TwoOptStar:
		return KindTwoOptStar
	case OrOpt:
		return KindOrOpt
	case OrOptN:
		return KindOrOptN
	case RelocateNew:
		return KindRelocateNew
	case CrossExchange:
		return KindCrossExchange
	}
	return KindNone
}
