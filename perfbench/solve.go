package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/deme"
	"repro/internal/dynamic"
	"repro/internal/vrptw"
)

// The solve workloads: closed-loop, one caller, in-process core.RunContext
// on the Sim backend at the paper's settings (N=400, neighbourhood 200,
// 100,000 evaluations) with granular k=20 neighbourhoods.
const (
	nCustomers = 400
	granularK  = 20
	paperEvals = 100000
	mwProcs    = 12
	// ckptEvery places the warmed checkpoint the in-process mutation probe
	// splices into mid-run: barrier 1 at iteration 250 of 500.
	ckptEvery = 250
)

// poolClasses are the instance classes of the solve pool: R1 has short
// time windows, C2 long ones.
var poolClasses = []vrptw.Class{vrptw.R1, vrptw.C2, vrptw.R1, vrptw.C2}

// solveSpec is one (variant, instance, search seed) of a workload's pool.
type solveSpec struct {
	alg  core.Algorithm
	inst int
	seed uint64
}

// solveOutcome is what one solve must repeat exactly on the Sim.
type solveOutcome struct {
	evals, iters int
	hv           float64
}

// solvePool is a workload's set-up: the instances with their neighbour
// lists built, a warmed checkpoint per instance, and the spec cycle.
type solvePool struct {
	ins   []*vrptw.Instance
	ckpts []*core.Checkpoint
	specs []solveSpec
}

func workloadRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// generatePool builds the workload's instances from the seed.
func generatePool(seed uint64) ([]*vrptw.Instance, error) {
	r := workloadRand(seed, 1)
	ins := make([]*vrptw.Instance, len(poolClasses))
	for i, c := range poolClasses {
		in, err := vrptw.Generate(vrptw.GenConfig{Class: c, N: nCustomers, Seed: r.Uint64() >> 16})
		if err != nil {
			return nil, fmt.Errorf("generating instance %d: %w", i, err)
		}
		ins[i] = in
	}
	return ins, nil
}

func solveConfig(sp solveSpec) core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxEvaluations = paperEvals
	cfg.GranularK = granularK
	cfg.Seed = sp.seed
	if sp.alg != core.Sequential {
		cfg.Processors = mwProcs
	}
	return cfg
}

// setupSolvePool is the solve workloads' set-up: generate the instances,
// build their neighbour lists, and warm up with one checkpointing solve
// per instance whose mid-run checkpoint the mutation probe reuses.
func setupSolvePool(ctx context.Context, seed uint64, mw bool) (*solvePool, error) {
	ins, err := generatePool(seed)
	if err != nil {
		return nil, err
	}
	p := &solvePool{ins: ins, ckpts: make([]*core.Checkpoint, len(ins))}
	for i, in := range ins {
		in.NeighborLists(granularK)
		cfg := solveConfig(solveSpec{alg: core.Sequential, seed: seed})
		cfg.CheckpointEvery = ckptEvery
		cfg.CheckpointSink = func(ck *core.Checkpoint) error {
			if ck.Barrier == 1 {
				p.ckpts[i] = ck
			}
			return nil
		}
		if _, err := core.RunContext(ctx, core.Sequential, in, cfg, deme.NewSim(deme.Origin3800())); err != nil {
			return nil, fmt.Errorf("warm-up solve: %w", err)
		}
		if p.ckpts[i] == nil {
			return nil, fmt.Errorf("warm-up solve on instance %d left no checkpoint", i)
		}
	}
	// Sequential: 32 specs. Master-worker: 24 specs, one synchronous for
	// every two asynchronous, so the latency distribution has one mode
	// for its median to sit in.
	n, r := 32, workloadRand(seed, 2)
	if mw {
		n = 24
	}
	for k := 0; k < n; k++ {
		sp := solveSpec{alg: core.Sequential, inst: k % len(ins), seed: r.Uint64()}
		if mw {
			sp.alg = core.Asynchronous
			if k%3 == 0 {
				sp.alg = core.Synchronous
			}
		}
		p.specs = append(p.specs, sp)
	}
	return p, nil
}

// solve runs one spec, returns the CPU time it took (cpuTime), and checks
// its front with both oracles.
func (p *solvePool) solve(ctx context.Context, sp solveSpec) (solveOutcome, time.Duration, error) {
	in := p.ins[sp.inst]
	c0 := cpuTime()
	res, err := core.RunContext(ctx, sp.alg, in, solveConfig(sp), deme.NewSim(deme.Origin3800()))
	took := cpuTime() - c0
	if err != nil {
		return solveOutcome{}, took, err
	}
	front := pointsOf(res.Front)
	if err := checkFront(in, front); err != nil {
		return solveOutcome{}, took, fmt.Errorf("%v on instance %d seed %d: %w", sp.alg, sp.inst, sp.seed, err)
	}
	return solveOutcome{evals: res.Evaluations, iters: res.Iterations, hv: frontHV(in, front)}, took, nil
}

// mutateProbe splices a two-mutation batch (cancel one customer, widen
// another's window) into instance i's warmed checkpoint through
// dynamic.Schedule.Apply — the in-process form of a live mutation — and
// checks that both mutations applied. It returns the CPU time Apply took
// (cpuTime) and the neighbour lists it rebuilt.
func (p *solvePool) mutateProbe(ctx context.Context, i int, r *rand.Rand) (time.Duration, int, error) {
	in, ck := p.ins[i], p.ckpts[i]
	muts := probeMutations(in, r)
	sc := dynamic.NewSchedule()
	if err := sc.AddAt(ck.Barrier, muts); err != nil {
		return 0, 0, err
	}
	c0 := cpuTime()
	nin, _, err := sc.Apply(ctx, in, ck)
	d := cpuTime() - c0
	if err != nil {
		return d, 0, err
	}
	if nin.N() != in.N()-1 {
		return d, 0, fmt.Errorf("mutated instance has %d customers after one cancel of %d", nin.N(), in.N())
	}
	reps := sc.Reports()
	if len(reps) != 1 || reps[0].Applied != len(muts) {
		return d, 0, fmt.Errorf("mutation reports %+v, want one epoch applying %d", reps, len(muts))
	}
	return d, reps[0].ListsRebuilt, nil
}

// probeMutations draws a valid batch: open one customer's window from
// time 0, then cancel another customer (listed second, so the first
// mutation's index needs no renumbering).
func probeMutations(in *vrptw.Instance, r *rand.Rand) []dynamic.Mutation {
	n := in.N()
	a := 1 + r.IntN(n)
	b := 1 + r.IntN(n-1)
	if b >= a {
		b++
	}
	return []dynamic.Mutation{
		{Version: dynamic.Version, Op: dynamic.ShiftWindow, Customer: b, Ready: 0, Due: in.Sites[b].Due},
		{Version: dynamic.Version, Op: dynamic.CancelCustomer, Customer: a},
	}
}

// runSolveWorkload runs solve-seq or solve-mw, as o.workload names.
func runSolveWorkload(ctx context.Context, o opts, res *result) error {
	var setups []float64
	var pool *solvePool
	for k := 0; k < setupRepeats; k++ {
		c0 := cpuTime()
		p, err := setupSolvePool(ctx, o.seed, o.workload == "solve-mw")
		if err != nil {
			return err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		pool = p
	}

	first := make([]*solveOutcome, len(pool.specs))
	times := make([][]float64, len(pool.specs))
	var lat, mut, kernel []float64
	mr := workloadRand(o.seed, 3)
	res.startMeasuring()
	deadline := time.Now().Add(o.seconds)
	for i := 0; i <= len(pool.specs) || time.Now().Before(deadline); i++ {
		// Each timed operation starts from a collected heap, so the
		// collector's work on one operation's garbage is not billed to
		// the next.
		runtime.GC()
		k := i % len(pool.specs)
		sp := pool.specs[k]
		res.attempted++
		out, took, err := pool.solve(ctx, sp)
		if err != nil {
			res.fail("solve: %v", err)
			continue
		}
		if f := first[k]; f == nil {
			first[k] = &out
		} else if *f != out {
			res.fail("determinism: %v instance %d seed %d gave %+v, first run %+v", sp.alg, sp.inst, sp.seed, out, *f)
		}
		times[k] = append(times[k], took.Seconds())
		lat = append(lat, msOf(took))

		// Two mutation probes per solve give mutate_ms several hundred
		// samples a run; they too start from a collected heap.
		runtime.GC()
		for j := 0; j < 2; j++ {
			res.attempted++
			d, _, err := pool.mutateProbe(ctx, sp.inst, mr)
			if err != nil {
				res.fail("mutation probe: %v", err)
				continue
			}
			mut = append(mut, msOf(d))
		}
		kernel = append(kernel, msOf(hostKernel()))
	}

	// Throughput over the pool: each spec's evaluations against its median
	// time, so one slowed solve cannot move the figure. Times are CPU
	// times, which leave out steal (cpuTime), divided by the run's host
	// slowdown, which takes out the other guests' load that CPU time
	// keeps: the figures are those of the quiet reference host.
	slow := hostSlowdown(kernel)
	res.setups = scaled(setups, 1/slow)
	var evals, secs, hv float64
	digest := sha256.New()
	for k, f := range first {
		if f == nil {
			return fmt.Errorf("spec %d never completed", k)
		}
		evals += float64(f.evals)
		secs += median(times[k])
		hv += f.hv
		fmt.Fprintf(digest, "%d %d %x\n", f.evals, f.iters, math.Float64bits(f.hv))
	}
	// Two runs with the same seed must print the same digest.
	res.report["determinism_sha256"] = fmt.Sprintf("%x", digest.Sum(nil))
	res.put("evals_per_s", evals/secs*slow, "1/s")
	res.put("front_hv", hv/float64(len(first)), "ratio")
	res.report["host_slowdown"] = slow
	res.report["evals_per_s_measured"] = evals / secs
	lat, mut = scaled(lat, 1/slow), scaled(mut, 1/slow)
	// An in-process caller receives its first point with the result.
	res.putPercentiles("result_ms", lat, "ms", 0.5)
	res.putPercentiles("first_point_ms", lat, "ms", 0.5)
	res.putPercentiles("mutate_ms", mut, "ms", 0.5)
	res.reportTail("result_ms", lat)
	res.reportTail("mutate_ms", mut)
	res.report["solves"] = len(lat)
	res.report["pool_specs"] = len(pool.specs)
	res.report["mutation_probes"] = len(mut)
	return nil
}

// scaled returns xs times f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
