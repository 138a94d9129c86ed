// Package wsum implements the baseline the paper's §II.C contrasts the
// multiobjective formulation with: "Solving the problem a number of times
// with modified weights and a single criteria approach can result in
// several pareto-optimal solutions as well". It runs a single-objective
// Tabu Search — same operators, tabu list and construction heuristic as
// TSMO — once per weight vector, scalarizing the three objectives with a
// normalized weighted sum, and returns the non-dominated set of all best
// solutions found. Comparing its front against TSMO's at an equal total
// budget quantifies the paper's argument that the unbiased multiobjective
// search is the better use of the evaluation budget.
package wsum

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

// Weights is one scalarization of the three objectives. Components must be
// non-negative and not all zero; Normalize scales them to sum 1.
type Weights struct {
	Distance  float64
	Vehicles  float64
	Tardiness float64
}

// Normalize returns the weights scaled to sum to 1.
func (w Weights) Normalize() Weights {
	s := w.Distance + w.Vehicles + w.Tardiness
	if s == 0 {
		return Weights{Distance: 1.0 / 3, Vehicles: 1.0 / 3, Tardiness: 1.0 / 3}
	}
	return Weights{w.Distance / s, w.Vehicles / s, w.Tardiness / s}
}

// Lattice returns an evenly spread set of weight vectors on the simplex
// with the given resolution: all (i, j, k)/n with i+j+k = n. Resolution 4
// yields 15 vectors.
func Lattice(n int) []Weights {
	if n < 1 {
		n = 1
	}
	var out []Weights
	for i := 0; i <= n; i++ {
		for j := 0; j+i <= n; j++ {
			k := n - i - j
			out = append(out, Weights{
				Distance:  float64(i) / float64(n),
				Vehicles:  float64(j) / float64(n),
				Tardiness: float64(k) / float64(n),
			})
		}
	}
	return out
}

// RandomWeights draws k weight vectors uniformly from the simplex.
func RandomWeights(r *rng.Rand, k int) []Weights {
	out := make([]Weights, k)
	for i := range out {
		a, b := r.Float64(), r.Float64()
		if a > b {
			a, b = b, a
		}
		out[i] = Weights{Distance: a, Vehicles: b - a, Tardiness: 1 - b}
	}
	return out
}

// Config parameterizes the multi-start weighted-sum Tabu Search.
type Config struct {
	// Weights to run; each gets an equal share of MaxEvaluations.
	// Defaults to Lattice(4).
	Weights []Weights
	// MaxEvaluations is the total budget across all weight runs.
	MaxEvaluations int
	// NeighborhoodSize per iteration (default 200).
	NeighborhoodSize int
	// TabuTenure (default 20).
	TabuTenure int
	// Seed for reproducibility.
	Seed uint64
}

// Result of a weighted-sum multi-start run.
type Result struct {
	// Front is the non-dominated set over all runs' best solutions.
	Front []*solution.Solution
	// PerWeight records each weight's best solution, aligned with the
	// configured weights.
	PerWeight []*solution.Solution
	// Evaluations actually spent.
	Evaluations int
}

// Run executes one single-objective Tabu Search per weight vector.
func Run(in *vrptw.Instance, cfg Config) (*Result, error) {
	if cfg.Weights == nil {
		cfg.Weights = Lattice(4)
	}
	if cfg.NeighborhoodSize == 0 {
		cfg.NeighborhoodSize = 200
	}
	if cfg.TabuTenure == 0 {
		cfg.TabuTenure = 20
	}
	if cfg.MaxEvaluations < len(cfg.Weights) {
		return nil, fmt.Errorf("wsum: budget %d below one evaluation per weight (%d weights)",
			cfg.MaxEvaluations, len(cfg.Weights))
	}
	r := rng.New(cfg.Seed)
	perBudget := cfg.MaxEvaluations / len(cfg.Weights)

	res := &Result{PerWeight: make([]*solution.Solution, len(cfg.Weights))}
	for i, w := range cfg.Weights {
		best, evals := singleObjectiveTS(in, w.Normalize(), perBudget, cfg, r.Split())
		res.PerWeight[i] = best
		res.Evaluations += evals
	}

	objs := make([]solution.Objectives, len(res.PerWeight))
	for i, s := range res.PerWeight {
		objs[i] = s.Obj
	}
	seen := map[[3]float64]bool{}
	for _, i := range pareto.NondominatedIndices(objs) {
		key := objs[i].Values()
		if seen[key] {
			continue
		}
		seen[key] = true
		res.Front = append(res.Front, res.PerWeight[i])
	}
	return res, nil
}

// scalar computes the weighted-sum fitness of objectives normalized by a
// reference solution's magnitudes (so the three terms are commensurable).
func scalar(o solution.Objectives, w Weights, ref solution.Objectives) float64 {
	norm := func(v, r float64) float64 {
		if r <= 0 {
			return v
		}
		return v / r
	}
	return w.Distance*norm(o.Distance, ref.Distance) +
		w.Vehicles*norm(o.Vehicles, ref.Vehicles) +
		w.Tardiness*norm(o.Tardiness, ref.Distance/10+1)
}

// singleObjectiveTS is a classic best-improvement Tabu Search on the
// scalarized objective, with best-so-far aspiration.
func singleObjectiveTS(in *vrptw.Instance, w Weights, budget int, cfg Config, r *rng.Rand) (*solution.Solution, int) {
	gen := operators.NewGenerator(in, nil)
	var buf operators.CandidateBuffer
	tl := tabu.NewList(cfg.TabuTenure)

	cur := construct.I1(in, construct.RandomParams(r))
	ref := cur.Obj
	best := cur
	bestVal := scalar(cur.Obj, w, ref)
	evals := 1

	for evals < budget {
		gen.CandidatesInto(&buf, cur, r, cfg.NeighborhoodSize)
		if len(buf.Data) == 0 {
			evals++
			continue
		}
		evals += len(buf.Data)
		chosen := -1
		chosenVal := math.Inf(1)
		for i, obj := range buf.Objs {
			v := scalar(obj, w, ref)
			if tl.Contains(buf.Data[i].Attribute()) && v >= bestVal {
				continue // tabu without aspiration
			}
			if v < chosenVal {
				chosen, chosenVal = i, v
			}
		}
		if chosen < 0 {
			// Everything tabu: restart from the best solution found.
			cur = best
			continue
		}
		cur = buf.Data[chosen].Apply(in, cur)
		tl.Add(buf.Data[chosen].Attribute())
		if chosenVal < bestVal {
			best, bestVal = cur, chosenVal
		}
	}
	return best, evals
}
