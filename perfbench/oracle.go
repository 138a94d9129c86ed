package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/solution"
	"repro/internal/vrptw"
)

// The output oracle. Every front the benchmark receives is checked twice:
// by the program's own solution.Validate, and by recomputing each member's
// objectives from its routes with the code below, which shares nothing
// with solution.Eval or vrptw's distance matrix.

// point is one front member's objectives as the program reported them.
type point struct {
	dist, veh, tard float64
	routes          [][]int
}

// recompute evaluates routes on the instance from the raw site data:
// Euclidean legs from coordinates, vehicles leave the depot at its ready
// time, wait for windows to open, and accrue lateness past each due date
// and past the depot's due date on return. It also checks that every
// customer is served exactly once and that no route exceeds capacity.
func recompute(in *vrptw.Instance, routes [][]int) (dist, veh, tard float64, err error) {
	sites := in.Sites
	seen := make([]bool, len(sites))
	leg := func(a, b int) float64 {
		dx, dy := sites[a].X-sites[b].X, sites[a].Y-sites[b].Y
		return math.Sqrt(dx*dx + dy*dy)
	}
	for ri, r := range routes {
		if len(r) == 0 {
			continue
		}
		veh++
		t, load, prev := sites[0].Ready, 0.0, 0
		for _, c := range r {
			if c < 1 || c >= len(sites) {
				return 0, 0, 0, fmt.Errorf("route %d visits unknown site %d", ri, c)
			}
			if seen[c] {
				return 0, 0, 0, fmt.Errorf("customer %d served twice", c)
			}
			seen[c] = true
			d := leg(prev, c)
			dist += d
			t = math.Max(t+d, sites[c].Ready)
			if t > sites[c].Due {
				tard += t - sites[c].Due
			}
			t += sites[c].Service
			load += sites[c].Demand
			prev = c
		}
		d := leg(prev, 0)
		dist += d
		if t+d > sites[0].Due {
			tard += t + d - sites[0].Due
		}
		if load > in.Capacity+1e-9 {
			return 0, 0, 0, fmt.Errorf("route %d load %g exceeds capacity %g", ri, load, in.Capacity)
		}
	}
	for c := 1; c < len(sites); c++ {
		if !seen[c] {
			return 0, 0, 0, fmt.Errorf("customer %d not served", c)
		}
	}
	return dist, veh, tard, nil
}

// checkFront runs both oracles over a front. An empty front is an error:
// every run ends with at least its construction solution.
func checkFront(in *vrptw.Instance, front []point) error {
	if len(front) == 0 {
		return fmt.Errorf("empty front")
	}
	for i, p := range front {
		if err := solution.Validate(in, solution.New(in, p.routes)); err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
		d, v, t, err := recompute(in, p.routes)
		if err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
		if !near(d, p.dist) || v != p.veh || !near(t, p.tard) {
			return fmt.Errorf("member %d: reported (dist %.9g, veh %g, tard %.9g) but routes give (%.9g, %g, %.9g)",
				i, p.dist, p.veh, p.tard, d, v, t)
		}
	}
	return nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func pointsOf(front []*solution.Solution) []point {
	out := make([]point, len(front))
	for i, s := range front {
		out[i] = point{dist: s.Obj.Distance, veh: s.Obj.Vehicles, tard: s.Obj.Tardiness, routes: s.Routes}
	}
	return out
}

// hvRef is the hypervolume reference point, computed from the instance
// alone: one vehicle more than there are customers, and twice the summed
// depot-to-customer distance (the length of serving every customer on a
// route of its own).
func hvRef(in *vrptw.Instance) (veh, dist float64) {
	d0 := in.Sites[0]
	for _, s := range in.Sites[1:] {
		dist += 2 * math.Hypot(s.X-d0.X, s.Y-d0.Y)
	}
	return float64(in.N() + 1), dist
}

// frontHV is the hypervolume of the front's feasible members in the
// (vehicles, distance) plane against hvRef, as a share of the box between
// the origin and the reference point, so it lies in [0, 1).
func frontHV(in *vrptw.Instance, front []point) float64 {
	rv, rd := hvRef(in)
	var pts [][2]float64
	for _, p := range front {
		if p.tard <= 1e-9 && p.veh < rv && p.dist < rd {
			pts = append(pts, [2]float64{p.veh, p.dist})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i][0] != pts[j][0] {
			return pts[i][0] < pts[j][0]
		}
		return pts[i][1] < pts[j][1]
	})
	area, best := 0.0, rd
	for i, p := range pts {
		if p[1] >= best {
			continue
		}
		next := rv
		for _, q := range pts[i+1:] {
			if q[0] > p[0] && q[1] < p[1] {
				next = q[0]
				break
			}
		}
		area += (next - p[0]) * (rd - p[1])
		best = p[1]
	}
	return area / (rv * rd)
}
