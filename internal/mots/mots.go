// Package mots implements a simplified variant of Hansen's MOTS
// (Multiobjective Tabu Search, MCDM 1997), the prior multiobjective TS the
// paper's §III.A discusses: a *population* of tabu-search points explores
// the objective space simultaneously; each point optimizes a weighted sum
// whose weights are recomputed every iteration to push the points apart —
// a point weighs an objective higher when it is already ahead of the other
// points there, so the population specializes toward different regions of
// the front. All non-dominated solutions encountered are archived.
//
// The implementation reuses the repository's substrates (operators, tabu
// lists, I1 construction, Pareto archive) so it is directly comparable to
// the TSMO of internal/core at equal evaluation budgets.
package mots

import (
	"fmt"
	"math"

	"repro/internal/construct"
	"repro/internal/operators"
	"repro/internal/pareto"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/tabu"
	"repro/internal/vrptw"
)

// Config parameterizes a MOTS run.
type Config struct {
	// Points is the number of concurrent search points (default 8).
	Points int
	// MaxEvaluations is the total budget across all points.
	MaxEvaluations int
	// NeighborhoodSize per point per iteration (default 50).
	NeighborhoodSize int
	// TabuTenure per point (default 20).
	TabuTenure int
	// ArchiveSize bounds the shared non-dominated archive (default 50).
	ArchiveSize int
	// Seed for reproducibility.
	Seed uint64
}

// Result of a MOTS run.
type Result struct {
	// Front is the shared archive's non-dominated set at termination.
	Front []*solution.Solution
	// Evaluations actually spent.
	Evaluations int
	// Iterations of the point-synchronous main loop.
	Iterations int
}

// point is one tabu-search trajectory of the population.
type point struct {
	cur *solution.Solution
	tl  *tabu.List
	r   *rng.Rand
}

// Run executes MOTS on the instance.
func Run(in *vrptw.Instance, cfg Config) (*Result, error) {
	if cfg.Points == 0 {
		cfg.Points = 8
	}
	if cfg.NeighborhoodSize == 0 {
		cfg.NeighborhoodSize = 50
	}
	if cfg.TabuTenure == 0 {
		cfg.TabuTenure = 20
	}
	if cfg.ArchiveSize == 0 {
		cfg.ArchiveSize = 50
	}
	if cfg.Points < 2 {
		return nil, fmt.Errorf("mots: need at least 2 points, got %d", cfg.Points)
	}
	if cfg.MaxEvaluations < cfg.Points {
		return nil, fmt.Errorf("mots: budget %d below one evaluation per point", cfg.MaxEvaluations)
	}

	seeder := rng.New(cfg.Seed)
	gen := operators.NewGenerator(in, nil)
	var buf operators.CandidateBuffer
	archive := pareto.NewArchive(cfg.ArchiveSize)

	points := make([]*point, cfg.Points)
	evals := 0
	for i := range points {
		r := seeder.Split()
		cur := construct.I1(in, construct.RandomParams(r))
		evals++
		archive.Add(cur)
		points[i] = &point{cur: cur, tl: tabu.NewList(cfg.TabuTenure), r: r}
	}

	iters := 0
	for evals < cfg.MaxEvaluations {
		weights := diversifyingWeights(points)
		for i, pt := range points {
			if evals >= cfg.MaxEvaluations {
				break
			}
			gen.CandidatesInto(&buf, pt.cur, pt.r, cfg.NeighborhoodSize)
			if len(buf.Data) == 0 {
				evals++
				continue
			}
			evals += len(buf.Data)
			best := -1
			bestVal := math.Inf(1)
			for k, obj := range buf.Objs {
				v := scalarize(obj, weights[i])
				if pt.tl.Contains(buf.Data[k].Attribute()) && !archive.WouldAccept(obj) {
					continue // tabu without archive aspiration
				}
				if v < bestVal {
					best, bestVal = k, v
				}
			}
			if best < 0 {
				// Fully tabu neighborhood: restart the point from
				// the archive to keep it productive.
				if s := archive.Random(pt.r); s != nil {
					pt.cur = s
				}
				continue
			}
			// Materialize only the chosen neighbor and the neighbors
			// that both dominate it and would enter the archive.
			prev := pt.cur
			pt.cur = buf.Data[best].Apply(in, prev)
			pt.tl.Add(buf.Data[best].Attribute())
			for k, obj := range buf.Objs {
				if k == best {
					continue
				}
				if obj.Dominates(pt.cur.Obj) && archive.WouldAccept(obj) {
					archive.Add(buf.Data[k].Apply(in, prev))
				}
			}
			archive.Add(pt.cur)
		}
		iters++
	}

	return &Result{Front: archive.Snapshot(), Evaluations: evals, Iterations: iters}, nil
}

// diversifyingWeights computes Hansen-style weights for every point: the
// weight of objective j for point x grows with how far ahead of the other
// points x already is in j (normalized by the population's objective
// ranges), so points double down on their strengths and spread across the
// front. A floor keeps every objective in play.
func diversifyingWeights(points []*point) []Weights {
	n := len(points)
	lo := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for _, p := range points {
		v := p.cur.Obj.Values()
		for j := 0; j < 3; j++ {
			lo[j] = math.Min(lo[j], v[j])
			hi[j] = math.Max(hi[j], v[j])
		}
	}
	var rng [3]float64
	for j := 0; j < 3; j++ {
		rng[j] = hi[j] - lo[j]
		if rng[j] <= 0 {
			rng[j] = 1
		}
	}
	out := make([]Weights, n)
	const floor = 0.1
	for i, p := range points {
		vi := p.cur.Obj.Values()
		var w [3]float64
		for j := 0; j < 3; j++ {
			ahead := 0.0
			for _, q := range points {
				if q == p {
					continue
				}
				if d := (q.cur.Obj.Values()[j] - vi[j]) / rng[j]; d > 0 {
					ahead += d
				}
			}
			w[j] = floor + ahead
		}
		sum := w[0] + w[1] + w[2]
		out[i] = Weights{w[0] / sum, w[1] / sum, w[2] / sum}
	}
	return out
}

// Weights is a normalized objective weighting (distance, vehicles,
// tardiness).
type Weights [3]float64

// scalarize computes the weighted objective value. Objectives are used
// raw — within one instance their magnitudes are stable enough for the
// *relative* ranking the selection needs, and the weights are recomputed
// from normalized gaps each iteration.
func scalarize(o solution.Objectives, w Weights) float64 {
	v := o.Values()
	return w[0]*v[0] + w[1]*v[1]*100 + w[2]*v[2]*10
}
