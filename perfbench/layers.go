package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/deme"
	"repro/internal/operators"
	"repro/internal/pareto"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/tabu"
	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

// The traced run. It times the benchmark's own calls into the public
// functions of each layer with spans kept in memory (stats.go) and reads
// the program's counters only through telemetry.Snapshot, deme.ProcStats
// and the job Status. It adds no tracing inside the program.

// layerMetric names one per-layer metric and the end-to-end metric and
// workload it should move.
type layerMetric struct {
	name, unit, better, moves string
}

var layerMetrics = []layerMetric{
	{"vrptw.generate_ms", "ms", "lower", "first_point_ms_* on service-mixed; nothing on solve-* (set-up there)"},
	{"vrptw.neighbor_lists_ms", "ms", "lower", "first_point_ms_* on service-mixed; nothing on solve-* (set-up there)"},
	{"construct.i1_ms", "ms", "lower", "first_point_ms_* on service-mixed"},
	{"operators.propose_us", "us", "lower", "evals_per_s on solve-seq most, then solve-mw; barely service-mixed"},
	{"operators.exhaust_ratio", "ratio", "lower", "evals_per_s on solve-seq, solve-mw"},
	{"operators.granular_fallback_ratio", "ratio", "lower", "evals_per_s on solve-seq, solve-mw"},
	{"solution.delta_us", "us", "lower", "evals_per_s on solve-seq"},
	{"solution.delta_fast_ratio", "ratio", "higher", "evals_per_s on solve-seq"},
	{"solution.cache_build_us", "us", "lower", "evals_per_s on solve-mw"},
	{"solution.apply_us", "us", "lower", "evals_per_s on solve-seq, solve-mw"},
	{"pareto.nondom_us", "us", "lower", "evals_per_s on solve-*"},
	{"pareto.archive_add_us", "us", "lower", "evals_per_s on solve-*"},
	{"pareto.archive_accept_ratio", "ratio", "higher", "evals_per_s and front_hv on solve-*"},
	{"tabu.contains_ns", "ns", "lower", "evals_per_s on solve-*"},
	{"tabu.reject_ratio", "ratio", "lower", "evals_per_s on solve-*"},
	{"tabu.aspiration_ratio", "ratio", "higher", "evals_per_s on solve-*"},
	{"core.iter_us", "us", "lower", "evals_per_s on solve-*"},
	{"core.iterations", "count", "higher", "evals_per_s on solve-*"},
	{"core.restarts", "count", "lower", "evals_per_s on solve-*"},
	{"core.late_cand_ratio", "ratio", "lower", "evals_per_s on solve-mw (asynchronous only)"},
	{"core.loop_us", "us", "lower", "evals_per_s on solve-*"},
	{"core.ckpt_encode_ms", "ms", "lower", "result_ms_* on service-mixed"},
	{"core.ckpt_bytes", "bytes", "lower", "result_ms_* on service-mixed"},
	{"deme.msgs_per_iter", "count", "lower", "evals_per_s on solve-mw only"},
	{"deme.bytes_per_iter", "bytes", "lower", "evals_per_s on solve-mw only"},
	{"deme.blocked_frac", "ratio", "lower", "evals_per_s on solve-mw only"},
	{"deme.handoff_ns", "ns", "lower", "evals_per_s on solve-mw only"},
	{"service.submit_ms", "ms", "lower", "first_point_ms_*, result_ms_* on service-mixed"},
	{"service.queue_wait_ms", "ms", "lower", "first_point_ms_*, result_ms_* on service-mixed"},
	{"service.run_ms", "ms", "lower", "result_ms_* on service-mixed"},
	{"service.status_ms", "ms", "lower", "first_point_ms_*, result_ms_* on service-mixed"},
	{"service.result_ms", "ms", "lower", "result_ms_* on service-mixed"},
	{"service.reject_ratio", "ratio", "lower", "ok_frac on service-mixed"},
	{"service.wal_bytes_per_job", "bytes", "lower", "first_point_ms_*, result_ms_* on service-mixed"},
	{"tenant.share_error", "ratio", "lower", "result_ms_p90 (report line) on service-mixed"},
	{"dynamic.patch_ms", "ms", "lower", "mutate_ms_p50 on service-mixed"},
	{"dynamic.splice_repair_ms", "ms", "lower", "mutate_ms_p50 on all workloads"},
	{"dynamic.lists_rebuilt", "count", "lower", "mutate_ms_p50 on all workloads"},
	{"trace.overhead_pct", "pct", "lower", "no end-to-end metric; bounds how far the traced per-layer numbers can be trusted"},
}

// replayStats is what one replay of the TSMO iteration measured.
type replayStats struct {
	iters, evals, applies, contains int
	wall                            time.Duration
}

// replay drives iters iterations of the sequential TSMO iteration
// (Algorithm 1) through the layers' public calls: MovesInto, EvalDataInto,
// NondominatedIndices, tabu Contains, MoveData.Apply and the archives'
// WouldAccept/Add. With a nil recorder it runs untraced.
func replay(in *vrptw.Instance, seed uint64, iters int, rec *recorder) replayStats {
	r := rng.New(seed)
	gen := operators.NewGenerator(in, nil)
	gen.Granular = in.NeighborLists(granularK)
	var buf operators.CandidateBuffer
	tl := tabu.NewList(20)
	nondom, archive := pareto.NewArchive(50), pareto.NewArchive(20)
	cur := construct.I1(in, construct.RandomParams(r))
	archive.Add(cur)
	var objs []solution.Objectives
	var st replayStats
	since := 0
	t0 := time.Now()
	for it := 0; it < iters; it++ {
		root := rec.start("core.iteration", -1)
		sp := rec.start("operators.propose", root)
		gen.MovesInto(&buf, cur, r, 200)
		rec.end(sp)
		n := len(buf.Data)
		if cap(objs) < n {
			objs = make([]solution.Objectives, n)
		}
		objs = objs[:n]
		sp = rec.start("solution.delta", root)
		gen.EvalDataInto(cur, buf.Data, objs)
		rec.end(sp)
		st.evals += n

		sp = rec.start("pareto.nondom", root)
		nd := pareto.NondominatedIndices(objs)
		rec.end(sp)

		sp = rec.start("tabu.contains", root)
		tabooed := make([]bool, len(nd))
		for k, i := range nd {
			tabooed[k] = tl.Contains(buf.Data[i].Attribute())
		}
		st.contains += len(nd)
		rec.end(sp)

		sp = rec.start("pareto.archive_add", root)
		var allowed, dominating []int
		for k, i := range nd {
			if !tabooed[k] || archive.WouldAccept(objs[i]) {
				allowed = append(allowed, i)
				if objs[i].Dominates(cur.Obj) {
					dominating = append(dominating, i)
				}
			}
		}
		rec.end(sp)

		restart := len(allowed) == 0 || since >= 100
		sel := -1
		if !restart {
			if len(dominating) > 0 {
				sel = dominating[r.Intn(len(dominating))]
			} else {
				sel = allowed[r.Intn(len(allowed))]
			}
		}
		base := cur
		sp = rec.start("solution.apply", root)
		if sel >= 0 {
			cur = buf.Data[sel].Apply(in, base)
			st.applies++
		}
		var entering []*solution.Solution
		for _, i := range nd {
			if i != sel && nondom.WouldAccept(objs[i]) {
				entering = append(entering, buf.Data[i].Apply(in, base))
				st.applies++
			}
		}
		rec.end(sp)
		if sel >= 0 {
			tl.Add(buf.Data[sel].Attribute())
		}

		sp = rec.start("pareto.archive_add", root)
		for _, s := range entering {
			nondom.Add(s)
		}
		if sel >= 0 && nondom.WouldAccept(cur.Obj) {
			nondom.Add(cur)
		}
		improved := archive.Add(cur)
		rec.end(sp)

		switch {
		case improved:
			since = 0
		case restart:
			since = 0
			if nondom.Len() > 0 {
				cur = nondom.TakeRandom(r)
			} else {
				cur = archive.Random(r)
			}
		default:
			since++
		}
		rec.end(root)
		st.iters++
	}
	st.wall = time.Since(t0)
	return st
}

// snapshotOf returns the telemetry snapshot as generic JSON values.
func snapshotOf(tel *telemetry.Telemetry) (map[string]any, error) {
	b, err := json.Marshal(tel.Snapshot())
	if err != nil {
		return nil, err
	}
	var m map[string]any
	return m, json.Unmarshal(b, &m)
}

func num(m map[string]any, path ...string) float64 {
	var v any = m
	for _, p := range path {
		mm, ok := v.(map[string]any)
		if !ok {
			return 0
		}
		v = mm[p]
	}
	f, _ := v.(float64)
	return f
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func runLayers(ctx context.Context, o opts, res *result) error {
	put := func(name string, v float64) {
		for _, m := range layerMetrics {
			if m.name == name {
				res.put(name, v, m.unit)
				return
			}
		}
		panic("perfbench: unknown per-layer metric " + name)
	}
	// The run's seconds go to the timed loops: a fifth to the workload's
	// solves, a quarter to the paired replays, a third to the service.
	coreTime, replayTime, serviceTime := o.seconds/5, o.seconds/4, o.seconds/3
	mw := o.workload == "solve-mw"
	pool, err := setupSolvePool(ctx, o.seed, mw)
	if err != nil {
		return err
	}
	rec := newRecorder()
	r := workloadRand(o.seed, 7)

	// vrptw and construct: cold instances, cold neighbour lists, I1.
	for k := 0; k < 8; k++ {
		sp := rec.start("vrptw.generate", -1)
		in, err := vrptw.Generate(vrptw.GenConfig{Class: poolClasses[k%len(poolClasses)], N: nCustomers, Seed: r.Uint64() >> 16})
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.start("vrptw.neighbor_lists", -1)
		in.NeighborLists(granularK)
		rec.end(sp)
		sp = rec.start("construct.i1", -1)
		s := construct.I1(in, construct.RandomParams(rng.New(r.Uint64())))
		rec.end(sp)
		if err := checkFront(in, pointsOf([]*solution.Solution{s})); err != nil {
			res.fail("I1 solution: %v", err)
		}
	}

	// core: the workload's own solves, untraced, for the iteration time;
	// the service's jobs are sequential 20k-evaluation runs.
	var wall time.Duration
	iters := 0
	deadline := time.Now().Add(coreTime)
	for i := 0; i < len(pool.specs) && (i < 2 || time.Now().Before(deadline)); i++ {
		sp := pool.specs[i]
		cfg := solveConfig(sp)
		if o.workload == "service-mixed" {
			cfg.MaxEvaluations = jobEvals
		}
		t0 := time.Now()
		out, err := core.RunContext(ctx, sp.alg, pool.ins[sp.inst], cfg, deme.NewSim(deme.Origin3800()))
		wall += time.Since(t0)
		if err != nil {
			return err
		}
		iters += out.Iterations
		res.attempted++
		if err := checkFront(pool.ins[sp.inst], pointsOf(out.Front)); err != nil {
			res.fail("%v solve: %v", sp.alg, err)
		}
	}
	iterUS := float64(wall.Microseconds()) / float64(iters)
	put("core.iter_us", iterUS)

	// Counters through telemetry.Snapshot: one instrumented solve of the
	// workload's first spec, and an asynchronous P=12 solve for late
	// candidates and the master-worker message traffic.
	tel := telemetry.New(nil, nil)
	sp0 := pool.specs[0]
	cfg := solveConfig(sp0)
	cfg.Telemetry = tel
	if _, err := core.RunContext(ctx, sp0.alg, pool.ins[sp0.inst], cfg, deme.NewSim(deme.Origin3800())); err != nil {
		return err
	}
	snap, err := snapshotOf(tel)
	if err != nil {
		return err
	}
	var proposed, exhausted, fallbacks float64
	if ops, ok := snap["operators"].(map[string]any); ok {
		for name := range ops {
			proposed += num(snap, "operators", name, "proposed")
			exhausted += num(snap, "operators", name, "exhausted")
			fallbacks += num(snap, "operators", name, "granular_fallbacks")
		}
	}
	evals := num(snap, "search", "evaluations")
	put("operators.exhaust_ratio", ratio(exhausted, proposed+exhausted))
	put("operators.granular_fallback_ratio", ratio(fallbacks, proposed+exhausted))
	fast := num(snap, "delta", "fast")
	put("solution.delta_fast_ratio", ratio(fast, fast+num(snap, "delta", "apply_fallback")))
	acc := num(snap, "archive", "accepts")
	put("pareto.archive_accept_ratio", ratio(acc, acc+num(snap, "archive", "rejects")))
	rej, asp := num(snap, "search", "tabu_rejected"), num(snap, "search", "aspiration_fires")
	put("tabu.reject_ratio", ratio(rej, evals))
	put("tabu.aspiration_ratio", ratio(asp, asp+rej))
	put("core.iterations", num(snap, "search", "iterations"))
	put("core.restarts", num(snap, "search", "restarts_no_cand")+num(snap, "search", "restarts_stagnation"))

	atel := telemetry.New(nil, nil)
	acfg := solveConfig(solveSpec{alg: core.Asynchronous, seed: o.seed})
	acfg.Telemetry = atel
	if _, err := core.RunContext(ctx, core.Asynchronous, pool.ins[0], acfg, deme.NewSim(deme.Origin3800())); err != nil {
		return err
	}
	asnap, err := snapshotOf(atel)
	if err != nil {
		return err
	}
	put("core.late_cand_ratio", ratio(num(asnap, "async", "late_candidates"), num(asnap, "search", "evaluations")))

	// deme: virtual-time traffic of the synchronous and asynchronous
	// P=12 runs from ProcStats, and a Sim ping-pong for the hand-off cost.
	var msgs, bytes, blocked, life float64
	mwIters := 0
	for _, alg := range []core.Algorithm{core.Synchronous, core.Asynchronous} {
		sim := deme.NewSim(deme.Origin3800())
		out, err := core.RunContext(ctx, alg, pool.ins[1], solveConfig(solveSpec{alg: alg, seed: o.seed}), sim)
		if err != nil {
			return err
		}
		mwIters += out.Iterations
		for _, ps := range sim.Stats() {
			msgs += float64(ps.MsgsSent)
			bytes += float64(ps.BytesSent)
			blocked += ps.Blocked
			life += ps.End
		}
	}
	put("deme.msgs_per_iter", msgs/float64(mwIters))
	put("deme.bytes_per_iter", bytes/float64(mwIters))
	put("deme.blocked_frac", ratio(blocked, life))
	put("deme.handoff_ns", handoffNS(ctx))

	// The iteration replay, paired untraced/traced on the same inputs for
	// the tracing overhead; the traced halves give the phase self times.
	var ratios []float64
	var traced replayStats
	deadline = time.Now().Add(replayTime)
	for k := 0; k < 2 || time.Now().Before(deadline); k++ {
		in, seed := pool.ins[k%len(pool.ins)], uint64(k+1)
		var plain, withSpans replayStats
		if k%2 == 0 {
			plain = replay(in, seed, 150, nil)
			withSpans = replay(in, seed, 150, rec)
		} else {
			withSpans = replay(in, seed, 150, rec)
			plain = replay(in, seed, 150, nil)
		}
		if plain.evals != withSpans.evals {
			res.fail("replay: traced run made %d evaluations, untraced %d", withSpans.evals, plain.evals)
		}
		ratios = append(ratios, withSpans.wall.Seconds()/plain.wall.Seconds())
		traced.iters += withSpans.iters
		traced.applies += withSpans.applies
		traced.contains += withSpans.contains
	}
	put("trace.overhead_pct", 100*(median(ratios)-1))
	self := selfTimes(rec.spans)
	perIter := func(name string, unit time.Duration) float64 {
		return float64(self[name].total) / float64(traced.iters) / float64(unit)
	}
	put("vrptw.generate_ms", self["vrptw.generate"].per(time.Millisecond))
	put("vrptw.neighbor_lists_ms", self["vrptw.neighbor_lists"].per(time.Millisecond))
	put("construct.i1_ms", self["construct.i1"].per(time.Millisecond))
	put("operators.propose_us", perIter("operators.propose", time.Microsecond))
	put("pareto.nondom_us", perIter("pareto.nondom", time.Microsecond))
	put("pareto.archive_add_us", perIter("pareto.archive_add", time.Microsecond))
	put("tabu.contains_ns", float64(self["tabu.contains"].total)/float64(traced.contains))
	put("solution.apply_us", float64(self["solution.apply"].total)/float64(traced.applies)/1e3)
	phases := 0.0
	for _, name := range []string{"operators.propose", "solution.delta", "pareto.nondom", "tabu.contains", "solution.apply", "pareto.archive_add"} {
		phases += perIter(name, time.Microsecond)
	}
	put("core.loop_us", iterUS-phases)
	res.report["replay_phases_us_per_iter"] = phases
	res.report["replay_iteration_self_us"] = perIter("core.iteration", time.Microsecond)

	// solution: schedule-cache builds and warm delta sweeps at N=400.
	delta, build := solutionProbes(pool.ins[0], o.seed)
	put("solution.delta_us", delta)
	put("solution.cache_build_us", build)

	// core checkpoints and dynamic splice+repair on warmed checkpoints.
	var enc, splice []float64
	size, rebuilt := 0, 0
	for k := 0; k < 10; k++ {
		i := k % len(pool.ins)
		t0 := time.Now()
		data, err := core.EncodeCheckpoint(pool.ckpts[i])
		enc = append(enc, msOf(time.Since(t0)))
		if err != nil {
			return err
		}
		size += len(data)
		d, lists, err := pool.mutateProbe(ctx, i, r)
		if err != nil {
			res.fail("mutation probe: %v", err)
			continue
		}
		splice = append(splice, msOf(d))
		rebuilt += lists
	}
	put("core.ckpt_encode_ms", median(enc))
	put("core.ckpt_bytes", float64(size)/10)
	put("dynamic.splice_repair_ms", median(splice))
	put("dynamic.lists_rebuilt", float64(rebuilt)/10)

	if err := serviceLayers(ctx, o, serviceTime, res, put); err != nil {
		return err
	}

	var rows []map[string]any
	for _, m := range layerMetrics {
		v, ok := res.metrics[m.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		rows = append(rows, map[string]any{"name": m.name, "value": v.Value, "unit": m.unit, "moves": m.moves})
	}
	res.report["per_layer"] = rows
	return nil
}

// solutionProbes times warm delta sweeps (EvalDataInto on a solution
// whose schedule cache is built) and cold cache builds (NewEval) on
// solutions along a short search.
func solutionProbes(in *vrptw.Instance, seed uint64) (deltaUS, buildUS float64) {
	r := rng.New(seed)
	gen := operators.NewGenerator(in, nil)
	gen.Granular = in.NeighborLists(granularK)
	var buf operators.CandidateBuffer
	cur := construct.I1(in, construct.RandomParams(r))
	var deltas, builds []float64
	for k := 0; k < 200; k++ {
		gen.MovesInto(&buf, cur, r, 200)
		objs := make([]solution.Objectives, len(buf.Data))
		gen.EvalDataInto(cur, buf.Data, objs) // builds the cache
		t0 := time.Now()
		gen.EvalDataInto(cur, buf.Data, objs)
		deltas = append(deltas, float64(time.Since(t0).Nanoseconds())/1e3)
		t0 = time.Now()
		solution.NewEval(in, cur)
		builds = append(builds, float64(time.Since(t0).Nanoseconds())/1e3)
		if len(buf.Data) > 0 {
			cur = buf.Data[r.Intn(len(buf.Data))].Apply(in, cur)
		}
	}
	return median(deltas), median(builds)
}

// handoffNS times a two-process ping-pong on the Sim through deme.RunWith
// and returns the wall time per message.
func handoffNS(ctx context.Context) float64 {
	const rounds = 20000
	t0 := time.Now()
	err := deme.RunWith(ctx, deme.NewSim(deme.Ideal()), 2, func(p deme.Proc) {
		for i := 0; i < rounds; i++ {
			if p.ID() == 0 {
				p.Send(1, 0, i, 8)
				p.Recv()
			} else {
				m, ok := p.Recv()
				if !ok {
					return
				}
				p.Send(0, 0, m.Data, 8)
			}
		}
	})
	if err != nil {
		return 0
	}
	return float64(time.Since(t0).Nanoseconds()) / (2 * rounds)
}

// serviceLayers measures the service, tenant and PATCH path: a short
// open-loop phase at the nominal rate, then a backlog burst of both
// tenants whose dispatch order gives the fair-share error.
func serviceLayers(ctx context.Context, o opts, d time.Duration, res *result, put func(string, float64)) error {
	e, err := setupService(ctx, o.seed, 0)
	if err != nil {
		return err
	}
	defer e.close()
	n := int(nominalRate * d.Seconds())
	if n < 20 {
		n = 20
	}
	lo := e.offer(ctx, arrivals(o.seed+1, nominalRate, n, distinctJobs, mutateShare))
	res.attempted += len(lo.arrivals)
	for _, err := range lo.errs {
		res.fail("%v", err)
	}
	var submit, queue, run, result, patch []float64
	for _, jt := range lo.jobs {
		st := jt.status
		submit = append(submit, msOf(jt.submit))
		queue = append(queue, msOf(st.StartedAt.Sub(st.SubmittedAt)))
		run = append(run, msOf(st.FinishedAt.Sub(*st.StartedAt)))
		result = append(result, msOf(jt.resultCall))
		if jt.patchCall > 0 {
			patch = append(patch, msOf(jt.patchCall))
		}
	}
	put("service.submit_ms", median(submit))
	put("service.queue_wait_ms", median(queue))
	put("service.run_ms", median(run))
	put("service.status_ms", median(lo.status))
	put("service.result_ms", median(result))
	put("service.reject_ratio", ratio(float64(lo.rejected), float64(len(lo.arrivals))))
	put("dynamic.patch_ms", median(patch))
	if fi, err := os.Stat(filepath.Join(e.dir, "journal.jsonl")); err == nil {
		put("service.wal_bytes_per_job", float64(fi.Size())/float64(len(lo.arrivals)+2))
	} else {
		return err
	}

	share, err := e.fairShare(ctx, o.seed)
	if err != nil {
		return err
	}
	res.attempted++
	put("tenant.share_error", share)
	return nil
}

// fairShare submits a burst of jobs from both tenants, interleaved, and
// returns how far the gold tenant's share of 16 dispatches under backlog
// is from its 3/4 weight share. The first dispatches are skipped: they go
// to whichever jobs reach the idle workers first.
func (e *svcEnv) fairShare(ctx context.Context, seed uint64) (float64, error) {
	const per, window = 20, 16
	skip := runtime.NumCPU()
	var sched []arrival
	r := workloadRand(seed, 8)
	for i := 0; i < 2*per; i++ {
		sched = append(sched, arrival{tenant: i % 2, inst: r.IntN(instancePool), seed: r.Uint64()})
	}
	lo := e.offer(ctx, sched)
	if len(lo.errs) > 0 {
		return 0, fmt.Errorf("fair-share burst: %v", lo.errs[0])
	}
	sort.Slice(lo.jobs, func(i, j int) bool { return lo.jobs[i].status.StartedAt.Before(*lo.jobs[j].status.StartedAt) })
	gold := 0
	for _, jt := range lo.jobs[skip : skip+window] {
		if jt.status.Tenant == tenants[0].name {
			gold++
		}
	}
	return math.Abs(float64(gold)/window - 0.75), nil
}
