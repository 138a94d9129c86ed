package solution

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/vrptw"
)

func evalInstance(t testing.TB, class vrptw.Class, n int, seed uint64) *vrptw.Instance {
	t.Helper()
	in, err := vrptw.Generate(vrptw.GenConfig{Class: class, N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// capacityFill builds a capacity-feasible solution by filling routes with
// customers in ID order.
func capacityFill(in *vrptw.Instance) *Solution {
	var routes [][]int
	var cur []int
	var load float64
	for c := 1; c <= in.N(); c++ {
		d := in.Sites[c].Demand
		if load+d > in.Capacity {
			routes = append(routes, cur)
			cur, load = nil, 0
		}
		cur = append(cur, c)
		load += d
	}
	if len(cur) > 0 {
		routes = append(routes, cur)
	}
	return New(in, routes)
}

// suffixMetrics is the reference simulator: it serves route[j:] starting
// with the vehicle arriving at route[j] at time arr and returns the
// tardiness incurred, including the late-depot-return term.
func suffixMetrics(in *vrptw.Instance, route []int, j int, arr float64) float64 {
	var tard float64
	t := arr
	prev := route[j]
	s := &in.Sites[prev]
	if t < s.Ready {
		t = s.Ready
	}
	if t > s.Due {
		tard += t - s.Due
	}
	t += s.Service
	for _, c := range route[j+1:] {
		s := &in.Sites[c]
		t += in.Dist(prev, c)
		if t < s.Ready {
			t = s.Ready
		}
		if t > s.Due {
			tard += t - s.Due
		}
		t += s.Service
		prev = c
	}
	t += in.Dist(prev, 0)
	if t > in.Sites[0].Due {
		tard += t - in.Sites[0].Due
	}
	return tard
}

func TestRouteEvalForwardArrays(t *testing.T) {
	in := evalInstance(t, vrptw.R1, 60, 3)
	s := capacityFill(in)
	e := NewEval(in, s)
	for ri, route := range s.Routes {
		re := &e.R[ri]
		k := len(route)
		dist, tard, load := RouteMetrics(in, route)
		// The cached prefixes exclude the return leg; add it back.
		last := route[k-1]
		wantDist := re.Dist[k] + in.Dist(last, 0)
		if wantDist != dist {
			t.Errorf("route %d: prefix dist %g + return leg != RouteMetrics dist %g", ri, wantDist, dist)
		}
		ret := re.Depart[k] + in.Dist(last, 0)
		wantTard := re.Tard[k]
		if ret > in.Sites[0].Due {
			wantTard += ret - in.Sites[0].Due
		}
		if wantTard != tard {
			t.Errorf("route %d: prefix tard %g != RouteMetrics tard %g", ri, wantTard, tard)
		}
		if re.Load[k] != load {
			t.Errorf("route %d: prefix load %g != RouteMetrics load %g", ri, re.Load[k], load)
		}
		if e.PrefixLoad(ri, k) != load {
			t.Errorf("route %d: PrefixLoad(%d) = %g, want %g", ri, k, e.PrefixLoad(ri, k), load)
		}
		// Prefix monotonicity and positional consistency.
		for p := 1; p <= k; p++ {
			if re.Dist[p] < re.Dist[p-1] || re.Tard[p] < re.Tard[p-1] || re.Load[p] < re.Load[p-1] {
				t.Fatalf("route %d: non-monotone prefix at %d", ri, p)
			}
		}
	}
}

func TestRouteEvalLatestSchedule(t *testing.T) {
	// Latest[j] must be exactly the threshold arrival: arriving at Latest[j]
	// serves the suffix without tardiness, arriving any later does not.
	in := evalInstance(t, vrptw.R1, 80, 11)
	s := capacityFill(in)
	e := NewEval(in, s)
	for ri, route := range s.Routes {
		re := &e.R[ri]
		for j := range route {
			latest := re.Latest[j]
			if math.IsInf(latest, -1) {
				// Even the earliest possible arrival is tardy downstream.
				if got := suffixMetrics(in, route, j, 0); got <= 0 {
					t.Errorf("route %d pos %d: Latest=-Inf but earliest arrival has tardiness %g", ri, j, got)
				}
				continue
			}
			if got := suffixMetrics(in, route, j, latest); got != 0 {
				t.Errorf("route %d pos %d: arrival at Latest=%g has tardiness %g, want 0", ri, j, latest, got)
			}
			if got := suffixMetrics(in, route, j, latest+1e-3); got <= 0 {
				t.Errorf("route %d pos %d: arrival after Latest=%g still has zero tardiness", ri, j, latest)
			}
		}
		// Latest[k] is the depot due date.
		if re.Latest[len(route)] != in.Sites[0].Due {
			t.Errorf("route %d: Latest[k] = %g, want depot due %g", ri, re.Latest[len(route)], in.Sites[0].Due)
		}
	}
}

func TestSpliceMetricsWholeRouteIdentity(t *testing.T) {
	// A single segment covering the whole route must reproduce RouteMetrics
	// bit for bit: the prefix fold reuses the very sums RouteMetrics builds.
	for _, class := range []vrptw.Class{vrptw.R1, vrptw.C1, vrptw.RC1, vrptw.R2} {
		in := evalInstance(t, class, 50, uint64(class)+1)
		s := capacityFill(in)
		e := NewEval(in, s)
		for ri, route := range s.Routes {
			dist, tard, _ := RouteMetrics(in, route)
			gd, gt := e.SpliceMetrics(in, Piece(ri, 0, len(route)))
			if gd != dist || gt != tard {
				t.Errorf("class %v route %d: SpliceMetrics = (%g, %g), RouteMetrics = (%g, %g)",
					class, ri, gd, gt, dist, tard)
			}
		}
	}
}

// flatten materializes a splice composition into a plain customer sequence.
func flatten(s *Solution, segs []Seg) []int {
	var out []int
	for _, seg := range segs {
		if seg.Route < 0 {
			out = append(out, seg.Cust)
			continue
		}
		route := s.Routes[seg.Route]
		if seg.Rev {
			for j := seg.To - 1; j >= seg.From; j-- {
				out = append(out, route[j])
			}
		} else {
			out = append(out, route[seg.From:seg.To]...)
		}
	}
	return out
}

func TestSpliceMetricsRandomSplices(t *testing.T) {
	// Random compositions of cached pieces, reversed pieces and singletons
	// must agree with RouteMetrics on the materialized sequence to 1e-9.
	// The generator is biased toward leading prefixes and trailing suffixes
	// so the O(1) shortcut branches are exercised constantly.
	const tol = 1e-9
	for _, n := range []int{30, 120} {
		in := evalInstance(t, vrptw.RC1, n, uint64(n))
		s := capacityFill(in)
		e := NewEval(in, s)
		r := rng.New(uint64(n) * 7)
		for trial := 0; trial < 2000; trial++ {
			var segs []Seg
			nseg := 1 + r.Intn(4)
			for si := 0; si < nseg; si++ {
				switch r.Intn(4) {
				case 0:
					segs = append(segs, Single(1+r.Intn(in.N())))
				default:
					ri := r.Intn(len(s.Routes))
					k := len(s.Routes[ri])
					from := r.Intn(k + 1)
					to := from + r.Intn(k-from+1)
					if si == 0 && r.Intn(2) == 0 {
						from = 0 // exercise the prefix fold
					}
					if si == nseg-1 && r.Intn(2) == 0 {
						to = k // exercise the suffix shortcuts
					}
					if r.Intn(3) == 0 {
						segs = append(segs, ReversedPiece(ri, from, to))
					} else {
						segs = append(segs, Piece(ri, from, to))
					}
				}
			}
			gd, gt := e.SpliceMetrics(in, segs...)
			seq := flatten(s, segs)
			if len(seq) == 0 {
				continue // splices never produce empty routes in practice
			}
			wd, wt, _ := RouteMetrics(in, seq)
			if math.Abs(gd-wd) > tol || math.Abs(gt-wt) > tol {
				t.Fatalf("n=%d trial %d segs %+v: SpliceMetrics = (%g, %g), RouteMetrics = (%g, %g)",
					n, trial, segs, gd, gt, wd, wt)
			}
		}
	}
}

func TestEvalResetReusesBuffers(t *testing.T) {
	in := evalInstance(t, vrptw.R1, 40, 5)
	a := capacityFill(in)
	// A second solution with a different route structure.
	var rev []int
	for c := in.N(); c >= 1; c-- {
		rev = append(rev, c)
	}
	half := len(rev) / 2
	b := New(in, [][]int{rev[:half], rev[half:]})

	e := NewEval(in, a)
	if e.Solution() != a {
		t.Fatal("Eval not bound to its solution")
	}
	e.Reset(in, b)
	if e.Solution() != b {
		t.Fatal("Reset did not rebind the cache")
	}
	fresh := NewEval(in, b)
	if len(e.R) != len(fresh.R) {
		t.Fatalf("reused cache has %d routes, want %d", len(e.R), len(fresh.R))
	}
	for ri := range e.R {
		for p := range e.R[ri].Depart {
			if e.R[ri].Depart[p] != fresh.R[ri].Depart[p] ||
				e.R[ri].Dist[p] != fresh.R[ri].Dist[p] ||
				e.R[ri].Tard[p] != fresh.R[ri].Tard[p] ||
				e.R[ri].Load[p] != fresh.R[ri].Load[p] ||
				e.R[ri].Latest[p] != fresh.R[ri].Latest[p] {
				t.Fatalf("route %d pos %d: reused cache differs from fresh build", ri, p)
			}
		}
	}
}

func TestSpliceMetricsSingleCustomerRoute(t *testing.T) {
	in := evalInstance(t, vrptw.R2, 10, 7)
	s := New(in, [][]int{{1}, {2, 3, 4, 5, 6, 7, 8, 9, 10}})
	e := NewEval(in, s)
	dist, tard, _ := RouteMetrics(in, []int{1})
	gd, gt := e.SpliceMetrics(in, Piece(0, 0, 1))
	if gd != dist || gt != tard {
		t.Errorf("singleton route: SpliceMetrics = (%g, %g), want (%g, %g)", gd, gt, dist, tard)
	}
	// A pure Single seg spells out a brand-new one-customer route.
	gd, gt = e.SpliceMetrics(in, Single(1))
	if gd != dist || gt != tard {
		t.Errorf("Single(1): SpliceMetrics = (%g, %g), want (%g, %g)", gd, gt, dist, tard)
	}
}

// oneMoveChild derives the child of s that relocates the first customer
// of route 1 into route 3. When route 1 held one customer it empties and
// WithRoutes shifts every later route down one slot.
func oneMoveChild(in *vrptw.Instance, s *Solution) *Solution {
	donor := append([]int(nil), s.Routes[1][1:]...)
	recv := append(append([]int(nil), s.Routes[3]...), s.Routes[1][0])
	return s.WithRoutes(in, []int{1, 3}, [][]int{donor, recv})
}

// TestEvalResetKeepsUntouchedRoutes pins the incremental rebind: after a
// move that empties a route, so the later routes shift down a slot, Reset
// keeps the schedules of every shared route and rebuilds only the changed
// one. To tell a kept schedule from a rebuilt one, the test stretches
// every service time of the instance in place before the Reset (real
// code never mutates a bound instance): a rebuilt route picks the change
// up, a kept one does not.
func TestEvalResetKeepsUntouchedRoutes(t *testing.T) {
	in := evalInstance(t, vrptw.R1, 60, 9)
	s := capacityFill(in)
	if len(s.Routes) < 5 {
		t.Fatalf("need at least 5 routes, capacityFill produced %d", len(s.Routes))
	}
	// Shrink route 1 to one customer so the move below empties it.
	rest := append(append([]int(nil), s.Routes[2]...), s.Routes[1][1:]...)
	s = s.WithRoutes(in, []int{1, 2}, [][]int{s.Routes[1][:1], rest})
	e := NewEval(in, s)
	before := NewEval(in, s)
	child := oneMoveChild(in, s)
	if len(child.Routes) != len(s.Routes)-1 {
		t.Fatalf("child has %d routes, want %d", len(child.Routes), len(s.Routes)-1)
	}
	for c := range in.Sites {
		in.Sites[c].Service++
	}
	e.Reset(in, child)
	after := NewEval(in, child)
	same := func(a, b *RouteEval) bool {
		for p := range b.Depart {
			if a.Depart[p] != b.Depart[p] || a.Dist[p] != b.Dist[p] || a.Tard[p] != b.Tard[p] ||
				a.Load[p] != b.Load[p] || a.Latest[p] != b.Latest[p] {
				return false
			}
		}
		return len(a.Depart) == len(b.Depart)
	}
	kept := 0
	for i, r := range child.Routes {
		j := -1
		for k, pr := range s.Routes {
			if SameRoute(r, pr) {
				j = k
			}
		}
		switch {
		case j < 0 && !same(&e.R[i], &after.R[i]):
			t.Errorf("route %d: changed route not rebuilt", i)
		case j >= 0 && !same(&e.R[i], &before.R[j]):
			t.Errorf("route %d (parent slot %d): shared route was rebuilt, not kept", i, j)
		case j >= 0:
			kept++
		}
	}
	if want := len(child.Routes) - 1; kept != want {
		t.Errorf("kept %d routes, want %d (all but the receiver)", kept, want)
	}
}

// BenchmarkEvalRebind resets one cache back and forth between a
// 400-customer solution and its one-move child (a relocation between two
// routes), the rebind every searcher iteration and worker chunk pays.
func BenchmarkEvalRebind(b *testing.B) {
	in := evalInstance(b, vrptw.R1, 400, 1)
	s := capacityFill(in)
	child := oneMoveChild(in, s)
	e := NewEval(in, s)
	e.Reset(in, child) // size the receiver's slot for the longer route
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			e.Reset(in, child)
		} else {
			e.Reset(in, s)
		}
	}
}
