package core

import (
	"math"

	"repro/internal/construct"
	"repro/internal/deme"
	"repro/internal/metrics"
	"repro/internal/operators"
	"repro/internal/pareto"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/tabu"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vrptw"
)

// cand is one delta-evaluated candidate: a move tagged with the objectives
// of the solution it would produce, the solution it was proposed on, its
// tabu identity and the iteration it was born in (for the asynchronous
// variant and the trajectory of Figure 1). The full solution is only
// materialized — via materialize — when the candidate is selected as the
// next current solution or enters one of the memories.
type cand struct {
	data operators.MoveData  // only Kind is set on checkpoint-restored (pre-materialized) candidates
	base *solution.Solution  // the solution the move was proposed on
	obj  solution.Objectives // delta-evaluated objectives of the result
	sol  *solution.Solution  // materialized lazily; nil until needed
	attr tabu.Attribute
	born int
}

// materialize returns the candidate's solution, applying the move on first
// use and caching the result.
func (c *cand) materialize(in *vrptw.Instance) *solution.Solution {
	if c.sol == nil {
		c.sol = c.data.Apply(in, c.base)
	}
	return c.sol
}

// searcher bundles the state of the paper's Algorithm 1: the current
// solution, the three memories (tabu list, M_nondom, M_archive) and the
// restart logic. The sequential algorithm, the master of both master–worker
// variants and each collaborative process all drive one searcher.
type searcher struct {
	in  *vrptw.Instance
	cfg *Config
	gen *operators.Generator
	r   *rng.Rand

	// Per-searcher (possibly perturbed) parameters.
	neighborhood int
	restartIters int

	tl      *tabu.List
	nondom  *pareto.Archive
	archive *pareto.Archive

	cur           *solution.Solution
	iter          int
	evals         int
	sinceImprove  int
	noImprovement bool

	// Cluster sharing (Config.Share; primary searcher only): shareOn
	// gates the egress capture, shareOut accumulates the routes of
	// solutions that entered the archive since the last share epoch, and
	// xshares counts solutions published across the exchange.
	shareOn  bool
	shareOut [][][]int
	xshares  int

	rec        *Trajectory
	sampleOn   bool
	samples    []QualitySample
	lastSample int

	// Reusable hot-path storage, all owned by this searcher: the
	// generator's candidate buffer, the assembled candidate set, the
	// incrementally-maintained non-dominated front over it, and the
	// selection scratch lists. Aliasing rule: the slice generate returns
	// is backed by cands and valid only until the next generate call —
	// callers that carry candidates across iterations (the async master)
	// copy them out.
	buf        operators.CandidateBuffer
	cands      []cand
	nd         []int
	allowed    []int
	dominating []int

	// Telemetry (all nil when disabled — every recording call below is a
	// single branch then). tel is the whole layer for event emission, ts
	// is the hot-path search group (the operator funnel is resolved per
	// move kind on gen), hvRef is the fixed hypervolume reference point of
	// the periodic front-quality snapshots.
	tel   *telemetry.Telemetry
	ts    *telemetry.SearchStats
	hvRef solution.Objectives

	// Tracing (nil when the run carries no recorder). Iterations are far
	// too fine-grained for one span each, so the searcher batches them:
	// traceIter opens a "sweep" span lazily and closeSweep seals it every
	// sweepBatchIters iterations (and at outcome), amortizing the span
	// cost to a fraction of an allocation per iteration.
	tr      *trace.Trace
	phase   *trace.Span // parent of this searcher's phase spans (the run span)
	sweep   *trace.Span // open batched sweep span, nil between batches
	sweepLo int         // first iteration covered by the open sweep span
}

// sweepBatchIters is the number of iterations folded into one "sweep"
// span — small enough to localize a stall, large enough to stay within
// the <=3% enabled-tracing overhead gate (BENCH_trace.json).
const sweepBatchIters = 128

// procOutcome is what each algorithm body hands back to Run.
type procOutcome struct {
	front   []*solution.Solution
	evals   int
	iters   int
	shares  int
	samples []QualitySample
	err     error // a malformed payload or similar protocol violation
}

// outcome packages the searcher's final state.
func (s *searcher) outcome(shares int) procOutcome {
	s.closeSweep()
	return procOutcome{
		front:   s.archive.Snapshot(),
		evals:   s.evals,
		iters:   s.iter,
		shares:  shares,
		samples: s.samples,
	}
}

// failOutcome packages the searcher's state with a protocol error that Run
// surfaces to the caller instead of a panic.
func (s *searcher) failOutcome(err error) procOutcome {
	o := s.outcome(0)
	o.err = err
	return o
}

// evalShard delta-evaluates the move span data, proposed on cur, into
// objs (len(objs) == len(data)) on gen's schedule cache and charges p the
// modeled evaluation cost, all under one "eval_shard" span. It is the
// evaluation step of the master–worker variants: a synchronous worker
// evaluating its shipped span, the synchronous master evaluating its own
// span or recovering a lost one (bit-identical to the worker's reply), and
// an asynchronous worker evaluating the moves it proposed.
func evalShard(p deme.Proc, in *vrptw.Instance, cfg *Config, gen *operators.Generator,
	cur *solution.Solution, data []operators.MoveData, objs []solution.Objectives) {
	sp := cfg.tracer.Start(cfg.span, "eval_shard").
		SetInt("proc", int64(p.ID())).
		SetInt("moves", int64(len(data)))
	gen.EvalDataInto(cur, data, objs)
	chargeEval(p, in, cfg, objs)
	sp.End()
}

// chargeEval charges p the modeled cost of the candidates evaluated into
// objs. The sum runs in index order, so every way of evaluating a span
// advances the Sim's virtual clocks by the same bits.
func chargeEval(p deme.Proc, in *vrptw.Instance, cfg *Config, objs []solution.Objectives) {
	var cost float64
	for i := range objs {
		cost += cfg.Cost.evalCost(in, int(objs[i].Vehicles))
	}
	p.Compute(cost)
}

// candsInto wraps the evaluated span (data, objs), proposed on base in
// iteration born, into candidates in dst's storage (grown when short) and
// returns them.
func candsInto(dst []cand, base *solution.Solution, born int, data []operators.MoveData, objs []solution.Objectives) []cand {
	if cap(dst) < len(data) {
		dst = make([]cand, len(data))
	}
	dst = dst[:len(data)]
	for i, d := range data {
		dst[i] = cand{data: d, base: base, obj: objs[i], attr: d.Attribute(), born: born}
	}
	return dst
}

// maybeSample records a convergence sample when due.
func (s *searcher) maybeSample(p deme.Proc) {
	if !s.sampleOn || s.cfg.SampleEvery <= 0 || s.evals-s.lastSample < s.cfg.SampleEvery {
		return
	}
	s.lastSample = s.evals
	sm := QualitySample{
		Evals:        s.evals,
		Time:         p.Now(),
		ArchiveSize:  s.archive.Len(),
		BestDistance: math.Inf(1),
		BestVehicles: math.Inf(1),
	}
	for _, sol := range s.archive.Items() {
		if !sol.Obj.Feasible() {
			continue
		}
		if sol.Obj.Distance < sm.BestDistance {
			sm.BestDistance = sol.Obj.Distance
		}
		if sol.Obj.Vehicles < sm.BestVehicles {
			sm.BestVehicles = sol.Obj.Vehicles
		}
	}
	s.samples = append(s.samples, sm)

	// Periodic front-quality snapshot on the telemetry stream: archive
	// hypervolume (against the per-run reference fixed at init) and
	// Schott's spacing, so convergence is observable while the run is
	// still going.
	if s.tel.Sinks() {
		objs := metrics.FeasibleObjs(s.archive.Items())
		ev := telemetry.SnapshotEvent{
			Proc:        p.ID(),
			Evals:       s.evals,
			Iteration:   s.iter,
			Time:        p.Now(),
			ArchiveSize: s.archive.Len(),
			NondomSize:  s.nondom.Len(),
			Hypervolume: metrics.Hypervolume(objs, s.hvRef),
			Spacing:     metrics.Spacing(objs),
			HVRef:       telemetry.Objectives(s.hvRef),
		}
		if !math.IsInf(sm.BestDistance, 1) {
			bd, bv := sm.BestDistance, sm.BestVehicles
			ev.BestDistance, ev.BestVehicles = &bd, &bv
		}
		s.tel.Emit(ev)
	}
}

// newSearcher builds a searcher with the given (possibly perturbed)
// parameters; tenure, neighborhood and restartIters override the config
// when positive.
func newSearcher(in *vrptw.Instance, cfg *Config, r *rng.Rand, neighborhood, tenure, restartIters int) *searcher {
	if neighborhood <= 0 {
		neighborhood = cfg.NeighborhoodSize
	}
	if tenure <= 0 {
		tenure = cfg.TabuTenure
	}
	if restartIters <= 0 {
		restartIters = cfg.RestartIterations
	}
	s := &searcher{
		in:           in,
		cfg:          cfg,
		gen:          operators.NewGenerator(in, cfg.Operators),
		r:            r,
		neighborhood: neighborhood,
		restartIters: restartIters,
		tl:           tabu.NewList(tenure),
		nondom:       pareto.NewArchive(cfg.NondomSize),
		archive:      pareto.NewArchive(cfg.ArchiveSize),
		tel:          cfg.Telemetry,
		ts:           cfg.Telemetry.SearchGroup(),
		tr:           cfg.tracer,
		phase:        cfg.span,
	}
	s.gen.DeltaStats = cfg.Telemetry.DeltaGroup()
	s.gen.SpliceStats = cfg.Telemetry.SpliceGroup()
	s.gen.SetOps(cfg.Telemetry.Operators())
	if cfg.GranularK > 0 {
		s.gen.Granular = in.NeighborLists(cfg.GranularK)
	}
	s.archive.SetStats(cfg.Telemetry.ArchiveGroup())
	s.nondom.SetStats(cfg.Telemetry.NondomGroup())
	return s
}

// init generates the initial solution with the randomized I1 heuristic,
// charges its modeled cost, and seeds the memories.
func (s *searcher) init(p deme.Proc) {
	sp := s.tr.Start(s.phase, "construct").SetInt("proc", int64(p.ID()))
	defer sp.End()
	s.cur = construct.I1(s.in, construct.RandomParams(s.r))
	p.Compute(s.cfg.Cost.ConstructPerCustomer * float64(s.in.N()))
	s.evals++
	s.ts.Evals(1)
	s.archive.Add(s.cur)
	if s.rec != nil {
		s.rec.add(0, 0, s.cur.Obj, true)
	}
	// Fix the hypervolume reference of the telemetry snapshots relative to
	// the construction solution so successive snapshots are comparable
	// within a run (emitted with every snapshot event for interpretation).
	s.hvRef = solution.Objectives{
		Distance:  2*s.cur.Obj.Distance + 1,
		Vehicles:  s.cur.Obj.Vehicles + 1,
		Tardiness: 2*s.cur.Obj.Tardiness + 1,
	}
	if s.tel.Sinks() {
		s.tel.Emit(telemetry.InitEvent{Proc: p.ID(), Objectives: telemetry.Objectives(s.cur.Obj)})
	}
}

// generate draws and delta-evaluates up to n neighbors of the current
// solution, charging their modeled cost to p. The candidates carry
// objectives only; no neighbor solution is materialized here. The returned
// slice is backed by the searcher's reusable storage and is valid only
// until the next generate call.
func (s *searcher) generate(p deme.Proc, n int) []cand {
	s.gen.CandidatesInto(&s.buf, s.cur, s.r, n)
	s.cands = candsInto(s.cands, s.cur, s.iter, s.buf.Data, s.buf.Objs)
	chargeEval(p, s.in, s.cfg, s.buf.Objs)
	k := len(s.cands)
	s.evals += k
	s.ts.Evals(k)
	return s.cands
}

// step performs the selection and memory-update part of one Algorithm 1
// iteration on an already-evaluated candidate set (which, for the
// asynchronous variant, may mix several birth iterations). It returns
// whether the archive improved this iteration.
func (s *searcher) step(p deme.Proc, cands []cand) bool {
	p.Compute(s.cfg.Cost.OverheadPerNeighbor * float64(len(cands)))

	// The candidate set's non-dominated indices feed both the selection
	// and the M_nondom update. The front is folded incrementally into the
	// searcher's reusable buffer — one pass over the candidates against
	// the running front instead of the full O(n²) pairwise scan, and zero
	// allocations in steady state. The result is index-identical to
	// pareto.NondominatedIndices (duplicates kept, ascending order).
	s.nd = s.nd[:0]
	for i := range cands {
		s.foldFront(cands, i)
	}
	nd := s.nd
	sel := s.selectCand(cands, nd)
	if s.rec != nil {
		for i := range cands {
			s.rec.add(s.iter+1, cands[i].born, cands[i].obj, false)
		}
	}
	selected := operators.KindNone // stays KindNone on a restart
	if sel < 0 || s.noImprovement {
		// Restart from the memories: M_nondom entries are consumed,
		// archive entries survive.
		noCandidate := sel < 0
		consumed := s.restart()
		s.ts.Restart(noCandidate, consumed)
		if s.tel.Sinks() {
			trigger := "stagnation"
			if noCandidate {
				trigger = "no_candidate"
			}
			s.tel.Emit(telemetry.RestartEvent{Proc: p.ID(), Iteration: s.iter, Trigger: trigger,
				NondomConsumed: consumed, NondomSize: s.nondom.Len(), ArchiveSize: s.archive.Len()})
		}
		s.noImprovement = false
	} else {
		s.cur = cands[sel].materialize(s.in)
		s.tl.Add(cands[sel].attr)
		selected = cands[sel].data.Kind
		s.gen.KindStats(selected).Select()
	}
	if s.rec != nil {
		s.rec.add(s.iter+1, s.iter, s.cur.Obj, true)
	}

	// Update memories: non-dominated neighbors enter M_nondom, the
	// chosen current solution is offered to the archive. Candidates the
	// memory would reject anyway are never materialized.
	improved := false
	for _, i := range nd {
		if s.nondom.WouldAccept(cands[i].obj) {
			s.nondom.Add(cands[i].materialize(s.in))
		}
	}
	if s.archive.Add(s.cur) {
		improved = true
		s.gen.KindStats(selected).Accept() // nil for KindNone
		if s.shareOn {
			// Egress capture for the cluster exchange: route slices are
			// immutable once attached, so sharing them is safe.
			s.shareOut = append(s.shareOut, s.cur.Routes)
		}
		// Stream the accepted point: the solver service forwards these
		// to its subscribers as the evolving Pareto front.
		if s.tel.Sinks() {
			s.tel.Emit(telemetry.AcceptEvent{
				Proc:        p.ID(),
				Iteration:   s.iter,
				Time:        p.Now(),
				Objectives:  telemetry.Objectives(s.cur.Obj),
				Feasible:    s.cur.Obj.Feasible(),
				Operator:    s.gen.KindName(selected),
				ArchiveSize: s.archive.Len(),
			})
		}
	}
	if improved {
		s.sinceImprove = 0
	} else {
		s.sinceImprove++
		if s.sinceImprove >= s.restartIters {
			s.noImprovement = true
			s.sinceImprove = 0
		}
	}
	s.iter++
	s.ts.Iteration()
	s.traceIter(p)
	s.maybeSample(p)
	return improved
}

// traceIter maintains the batched "sweep" span: opened lazily on the
// first traced iteration, sealed every sweepBatchIters iterations. One
// branch when tracing is disabled.
func (s *searcher) traceIter(p deme.Proc) {
	if s.tr == nil {
		return
	}
	if s.sweep == nil {
		s.sweepLo = s.iter - 1
		s.sweep = s.tr.Start(s.phase, "sweep").SetInt("proc", int64(p.ID()))
	}
	if s.iter-s.sweepLo >= sweepBatchIters {
		s.closeSweep()
	}
}

// closeSweep seals the open sweep span (if any) with its iteration range
// and the evaluation count reached.
func (s *searcher) closeSweep() {
	if s.sweep == nil {
		return
	}
	s.sweep.SetInt("iter_lo", int64(s.sweepLo)).
		SetInt("iter_hi", int64(s.iter)).
		SetInt("evals", int64(s.evals))
	s.sweep.End()
	s.sweep = nil
}

// foldFront inserts candidate i into the running non-dominated front s.nd:
// if any front member dominates it, the front is unchanged; otherwise front
// members it dominates are compacted out and i is appended. Because front
// members are mutually non-dominated, no removal can precede finding a
// dominator (dominance is transitive), so the early return is safe — and
// the final front equals pareto.NondominatedIndices over the whole set,
// duplicates kept, indices ascending.
func (s *searcher) foldFront(cands []cand, i int) {
	obj := cands[i].obj
	w := 0
	for _, j := range s.nd {
		if cands[j].obj.Dominates(obj) {
			return // dominated; nothing before j can have been removed
		}
		if !obj.Dominates(cands[j].obj) {
			s.nd[w] = j
			w++
		}
	}
	s.nd = append(s.nd[:w], i)
}

// nondomIndices returns the indices of the candidates whose objectives are
// non-dominated within the set. The searcher's step folds the front
// incrementally instead; this remains as the reference implementation for
// tests and one-off callers.
func nondomIndices(cands []cand) []int {
	if len(cands) == 0 {
		return nil
	}
	objs := make([]solution.Objectives, len(cands))
	for i := range cands {
		objs[i] = cands[i].obj
	}
	return pareto.NondominatedIndices(objs)
}

// selectCand picks the next current solution from the candidate set: among
// the candidates non-dominated within the set (nd, as computed by
// nondomIndices) and not forbidden by the tabu list (with archive-entry
// aspiration), it prefers one that dominates the current solution and
// otherwise draws uniformly. It returns -1 when every candidate is
// unavailable — the paper's "s not in N" restart trigger.
func (s *searcher) selectCand(cands []cand, nd []int) int {
	if len(cands) == 0 {
		return -1
	}
	allowed := s.allowed[:0]
	for _, i := range nd {
		aspires := !s.cfg.DisableAspiration && s.archive.WouldAccept(cands[i].obj)
		if !s.tl.Contains(cands[i].attr) {
			allowed = append(allowed, i)
		} else if aspires {
			s.ts.Aspiration()
			allowed = append(allowed, i)
		} else {
			s.ts.TabuReject()
		}
	}
	s.allowed = allowed[:0]
	if len(allowed) == 0 {
		return -1
	}
	dominating := s.dominating[:0]
	for _, i := range allowed {
		if cands[i].obj.Dominates(s.cur.Obj) {
			dominating = append(dominating, i)
		}
	}
	s.dominating = dominating[:0]
	if len(dominating) > 0 {
		return dominating[s.r.Intn(len(dominating))]
	}
	return allowed[s.r.Intn(len(allowed))]
}

// done reports whether a budget is exhausted: the evaluation budget, a
// cancelled run context, or — when configured — the runtime budget for
// equal-time comparisons.
func (s *searcher) done(p deme.Proc) bool {
	if s.evals >= s.cfg.MaxEvaluations {
		return true
	}
	if s.cfg.cancelled() {
		return true
	}
	return s.cfg.MaxSeconds > 0 && p.Now() >= s.cfg.MaxSeconds
}

// restart replaces the current solution with one drawn from
// M_nondom ∪ M_archive, consuming M_nondom entries (the paper's ↓↑). It
// returns how many M_nondom entries it consumed (0 or 1); archive entries
// always survive.
func (s *searcher) restart() int {
	total := s.nondom.Len() + s.archive.Len()
	if total == 0 {
		return 0 // keep the current solution; nothing to restart from
	}
	k := s.r.Intn(total)
	if k < s.nondom.Len() {
		s.cur = s.nondom.TakeRandom(s.r)
		return 1
	}
	s.cur = s.archive.Random(s.r)
	return 0
}

// mergeFronts collapses per-process archive snapshots into one
// non-dominated front.
func mergeFronts(fronts [][]*solution.Solution) []*solution.Solution {
	var all []*solution.Solution
	for _, f := range fronts {
		all = append(all, f...)
	}
	objs := make([]solution.Objectives, len(all))
	for i, s := range all {
		objs[i] = s.Obj
	}
	idx := pareto.NondominatedIndices(objs)
	// Drop exact objective duplicates to keep the front tidy.
	seen := make(map[[3]float64]bool, len(idx))
	var out []*solution.Solution
	for _, i := range idx {
		key := all[i].Obj.Values()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, all[i])
	}
	return out
}

// perturb applies the collaborative variant's parameter disturbance: a
// normal deviate with standard deviation param/4, rounded, clamped to >= 1
// (§III.E: "disturbed by a random variable derived from a normal
// distribution with mean 0 and a standard deviation that is the quarter of
// the parameter").
func perturb(r *rng.Rand, param int) int {
	v := param + int(r.NormFloat64()*float64(param)/4+0.5)
	if v < 1 {
		v = 1
	}
	return v
}
