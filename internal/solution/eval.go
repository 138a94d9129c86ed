package solution

// Delta-evaluation support: per-route forward/backward schedules
// (Kindervater & Savelsbergh style) that let move operators compute the
// objective change of splicing, reversing or transplanting route segments
// without materializing the resulting routes. The forward arrays replay
// exactly the arithmetic of RouteMetrics, so a full splice walk reproduces
// its result bit for bit; the cached-suffix shortcuts introduce only the
// floating-point noise of subtracting prefix sums (well below 1e-9).

import (
	"math"

	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

// RouteEval caches the schedules of one route. All arrays have length
// len(route)+1.
//
// The forward arrays are prefix states: index i describes the vehicle
// after serving the first i customers. Depart[0] is the depot departure
// (the depot ready time); Dist, Tard and Load start at 0 and exclude the
// return leg to the depot.
//
// Latest is the backward schedule: Latest[j] for j < len(route) is the
// latest arrival time at route[j] for which serving route[j:] and
// returning to the depot incurs zero tardiness (-Inf when even the
// earliest service cannot avoid downstream tardiness), and
// Latest[len(route)] is the depot due date — the latest punctual return.
type RouteEval struct {
	Depart []float64
	Dist   []float64
	Tard   []float64
	Load   []float64
	Latest []float64
}

// build fills the arrays for route, reusing existing capacity.
func (re *RouteEval) build(in *vrptw.Instance, route []int) {
	k := len(route)
	re.Depart = sized(re.Depart, k+1)
	re.Dist = sized(re.Dist, k+1)
	re.Tard = sized(re.Tard, k+1)
	re.Load = sized(re.Load, k+1)
	re.Latest = sized(re.Latest, k+1)

	depot := &in.Sites[0]
	t := depot.Ready
	var dist, tard, load float64
	re.Depart[0], re.Dist[0], re.Tard[0], re.Load[0] = t, 0, 0, 0
	prev := 0
	for i, c := range route {
		s := &in.Sites[c]
		leg := in.Dist(prev, c)
		dist += leg
		t += leg
		if t < s.Ready {
			t = s.Ready
		}
		if t > s.Due {
			tard += t - s.Due
		}
		t += s.Service
		load += s.Demand
		re.Depart[i+1], re.Dist[i+1], re.Tard[i+1], re.Load[i+1] = t, dist, tard, load
		prev = c
	}

	re.Latest[k] = depot.Due
	next := 0
	for j := k - 1; j >= 0; j-- {
		c := route[j]
		s := &in.Sites[c]
		latest := re.Latest[j+1] - in.Dist(c, next) - s.Service
		switch {
		case latest < s.Ready:
			re.Latest[j] = math.Inf(-1)
		case latest > s.Due:
			re.Latest[j] = s.Due
		default:
			re.Latest[j] = latest
		}
		next = c
	}
}

func sized(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// assign copies src's schedules into re's buffers.
func (re *RouteEval) assign(src *RouteEval) {
	re.Depart = append(re.Depart[:0], src.Depart...)
	re.Dist = append(re.Dist[:0], src.Dist...)
	re.Tard = append(re.Tard[:0], src.Tard...)
	re.Load = append(re.Load[:0], src.Load...)
	re.Latest = append(re.Latest[:0], src.Latest...)
}

// Eval is the delta-evaluation cache of one solution: a RouteEval per
// route. It is bound to a specific *Solution; derive new solutions first
// and Reset the cache afterwards. An Eval is not safe for concurrent use.
//
// Rebinding is incremental, keyed by route identity. Route slices are
// immutable once attached to a Solution (see the package doc), and
// WithRoutes shares every route a move did not touch, so a route slice
// with the same backing array and length as one the cache already holds
// has identical schedules under the same instance. Reset keeps such
// RouteEvals and rebuilds only the others: a one-move child of the bound
// solution costs the rebuild of at most two routes. The cache remembers
// the *vrptw.Instance it was built against and rebuilds everything when
// that changes (a mutated instance is a new pointer).
type Eval struct {
	sol *Solution
	in  *vrptw.Instance
	R   []RouteEval
	// held[i] is the route whose schedules R[:cap(R)][i] holds, nil for
	// none. It spans the full capacity of R, so a route that shifted down
	// a slot is still found after R shrinks, and it keeps those routes
	// alive, so their backing arrays are never recycled for other routes.
	held [][]int
	// Stats, when non-nil, classifies every SpliceMetrics exit (prefix
	// fold, suffix early exit, resynchronization, full walk). nil — the
	// default — records nothing and costs one branch per exit.
	Stats *telemetry.SpliceStats
}

// NewEval builds the schedule cache for every route of s.
func NewEval(in *vrptw.Instance, s *Solution) *Eval {
	e := &Eval{}
	e.Reset(in, s)
	return e
}

// maxShift is how many slots past its own index Reset looks for a route
// the cache already holds. WithRoutes compacts an emptied route out of
// the list, which moves every later route one slot down; a short window
// also covers the few routes emptied between two solutions a worker sees.
const maxShift = 4

// SameRoute reports whether a and b are the same attached route slice:
// the same backing array and the same length. Route slices are immutable
// once attached, so such routes have equal contents. Empty routes never
// match, so a slot without a route is always rebuilt.
func SameRoute(a, b []int) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// Reset rebinds the cache to s. A route the cache already holds in its
// own slot (same slice, same instance) keeps its schedules; one held a
// few slots further on is copied down, which costs a memmove instead of a
// rebuild; every other route is rebuilt. Buffers stay with their slot, so
// each slot's capacity settles at the longest route it sees and a warm
// cache rebinds without allocating. The result is bitwise equal to
// NewEval(in, s).
func (e *Eval) Reset(in *vrptw.Instance, s *Solution) {
	e.sol = s
	n := len(s.Routes)
	if cap(e.R) < n {
		grown := make([]RouteEval, n)
		copy(grown, e.R[:cap(e.R)])
		e.R = grown
		held := make([][]int, n)
		copy(held, e.held)
		e.held = held
	}
	slots := e.R[:cap(e.R)]
	if in != e.in {
		clear(e.held)
		e.in = in
	}
	for i, r := range s.Routes {
		if SameRoute(e.held[i], r) {
			continue
		}
		src := -1
		for j := i + 1; j < len(slots) && j <= i+maxShift; j++ {
			if SameRoute(e.held[j], r) {
				src = j
				break
			}
		}
		if src >= 0 {
			slots[i].assign(&slots[src])
		} else {
			slots[i].build(in, r)
		}
		e.held[i] = r
	}
	e.R = slots[:n]
}

// Solution returns the solution this cache was built for.
func (e *Eval) Solution() *Solution { return e.sol }

// Rebind splices the cache onto a solution derived from the currently
// bound one, rebuilding only the routes that actually changed. from maps
// each route index of s to the index of the identical route in the
// previous solution, or -1 for a route that is new or was modified; the
// schedules of mapped routes are adopted as-is. This is the dynamic
// subsystem's repair path: after an instance mutation patches a handful
// of routes, the other schedule caches are carried over instead of being
// recomputed. Mapped routes must be unchanged both in content and in the
// instance data they touch (the caller guarantees the mutation did not
// affect their sites).
func (e *Eval) Rebind(in *vrptw.Instance, s *Solution, from []int) {
	if len(from) != len(s.Routes) {
		panic("solution: Rebind mapping length mismatch")
	}
	old := e.R
	fresh := make([]RouteEval, len(s.Routes))
	for i, src := range from {
		if src >= 0 {
			fresh[i] = old[src]
			continue
		}
		fresh[i].build(in, s.Routes[i])
	}
	e.R = fresh
	e.held = append([][]int(nil), s.Routes...)
	e.in = in
	e.sol = s
}

// PrefixLoad returns the summed demand of the first p customers of route r
// in O(1).
func (e *Eval) PrefixLoad(r, p int) float64 { return e.R[r].Load[p] }

// Seg is one building block of a spliced route: the half-open position
// range [From, To) of route Route of the cached solution, traversed in
// reverse when Rev is set — or, when Route is negative, the single
// customer Cust.
type Seg struct {
	Route    int
	From, To int
	Rev      bool
	Cust     int
}

// Piece references route[From:To] of the cached solution's route r.
func Piece(r, from, to int) Seg { return Seg{Route: r, From: from, To: to} }

// ReversedPiece references route[From:To] traversed back to front.
func ReversedPiece(r, from, to int) Seg { return Seg{Route: r, From: from, To: to, Rev: true} }

// Single is a segment holding one customer.
func Single(cust int) Seg { return Seg{Route: -1, Cust: cust} }

// SpliceMetrics computes the travel distance and tardiness of the route
// formed by concatenating segs — the values RouteMetrics would return on
// the materialized route — without building it. Cost is proportional to
// the changed region: a leading prefix of a cached route is folded in O(1),
// interior segments are walked customer by customer, and a trailing suffix
// of a cached route terminates as soon as the new schedule either provably
// incurs no further tardiness (arrival at or before Latest) or
// resynchronizes with the cached schedule (equal departure times).
func (e *Eval) SpliceMetrics(in *vrptw.Instance, segs ...Seg) (dist, tard float64) {
	e.Stats.Call()
	depot := &in.Sites[0]
	t := depot.Ready
	prev := 0

	step := func(c int) {
		s := &in.Sites[c]
		leg := in.Dist(prev, c)
		dist += leg
		t += leg
		if t < s.Ready {
			t = s.Ready
		}
		if t > s.Due {
			tard += t - s.Due
		}
		t += s.Service
		prev = c
	}

segments:
	for si := range segs {
		seg := &segs[si]
		if seg.Route < 0 {
			step(seg.Cust)
			continue
		}
		if seg.From >= seg.To {
			continue
		}
		route := e.sol.Routes[seg.Route]
		re := &e.R[seg.Route]

		// A leading prefix of a cached route: fold in O(1).
		if si == 0 && !seg.Rev && seg.From == 0 {
			e.Stats.PrefixFold()
			t = re.Depart[seg.To]
			dist = re.Dist[seg.To]
			tard = re.Tard[seg.To]
			prev = route[seg.To-1]
			continue
		}

		// A trailing suffix of a cached route: walk with early exit.
		if si == len(segs)-1 && !seg.Rev && seg.To == len(route) {
			totalDist, totalTard := e.sol.Dist[seg.Route], e.sol.Tard[seg.Route]
			for j := seg.From; j < seg.To; j++ {
				c := route[j]
				s := &in.Sites[c]
				leg := in.Dist(prev, c)
				arr := t + leg
				if arr <= re.Latest[j] {
					// The whole remaining suffix is served without
					// tardiness; its arcs are time-independent.
					e.Stats.SuffixEarlyExit()
					return dist + leg + totalDist - re.Dist[j+1], tard
				}
				dist += leg
				if arr < s.Ready {
					arr = s.Ready
				}
				if arr > s.Due {
					tard += arr - s.Due
				}
				t = arr + s.Service
				prev = c
				if t == re.Depart[j+1] {
					// Resynchronized with the cached schedule: the rest
					// of the suffix behaves exactly as cached.
					e.Stats.SuffixResync()
					return dist + totalDist - re.Dist[j+1], tard + totalTard - re.Tard[j+1]
				}
			}
			continue segments
		}

		// Generic interior segment: walk customer by customer.
		if seg.Rev {
			for j := seg.To - 1; j >= seg.From; j-- {
				step(route[j])
			}
		} else {
			for j := seg.From; j < seg.To; j++ {
				step(route[j])
			}
		}
	}

	// No suffix shortcut applied: the splice was simulated all the way to
	// the depot return.
	e.Stats.FullWalk()
	leg := in.Dist(prev, 0)
	dist += leg
	t += leg
	if t > depot.Due {
		tard += t - depot.Due
	}
	return dist, tard
}
