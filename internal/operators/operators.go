// Package operators implements the five neighborhood operators of the
// paper (§II.B): Relocate, Exchange, 2-opt, 2-opt* and Or-opt, each guarded
// by the local feasibility criterion — a move is rejected when one of the
// arcs it creates obviously violates a time window (earliest possible
// departure from i plus travel already exceeds j's due date) or when a
// route's demand would exceed the vehicle capacity. The criterion is weak
// enough that tardy solutions still occur in the search trajectory and
// strong enough that the search finds its way back to feasibility.
//
// A Generator draws moves from the operators with equal probability until
// the requested neighborhood size is reached, re-drawing the operator when
// a proposal fails (paper §III.B).
package operators

import (
	"sync"

	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/tabu"
	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

// Operator proposes random feasible moves on a solution.
type Operator interface {
	// Name is the operator's telemetry and checkpoint name.
	Name() string
	// Propose attempts to generate one random move on s that passes
	// the local feasibility criterion. It reports failure when it finds
	// none within its internal attempt budget. It never heap-allocates.
	Propose(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool)
}

// All returns fresh instances of the paper's five operators, in the order
// Relocate, Exchange, 2-opt, 2-opt*, Or-opt.
func All() []Operator {
	return []Operator{Relocate{}, Exchange{}, TwoOpt{}, TwoOptStar{}, OrOpt{}}
}

// proposeAttempts bounds the internal retries of a single Propose call.
const proposeAttempts = 30

// granFallbackBudget is how many times per sweep each operator may fall
// back to its dense proposal path after the granular path comes up empty.
// Raising it admits more dense-path moves per sweep (an unbounded budget
// turns the sweep dense again); measured over budgets 1, 2, 4 and
// unbounded at equal evaluation budget, final quality differences stay
// within seed noise, so the budget is set to the cheapest setting — one
// fallback, after which further draws of the operator fail fast.
const granFallbackBudget = 1

// Generator draws random moves on a solution from a set of operators with
// equal probability. The zero value is unusable; construct with
// NewGenerator. A Generator is not safe for concurrent use: it shares the
// caller's random stream and keeps one schedule cache, rebound to each new
// evaluated solution by route identity (see solution.Eval), so moving to
// a solution that shares most routes with the last one rebuilds only the
// routes that differ.
type Generator struct {
	in  *vrptw.Instance
	ops []Operator
	// MaxFailures bounds the total number of failed proposals in one
	// MovesInto call, preventing livelock on solutions with very few
	// feasible moves. Defaults to 50 failures per requested neighbor.
	MaxFailures int
	// DeltaStats, when non-nil, counts delta-evaluated candidates vs.
	// full-simulation Apply fallbacks; SpliceStats is handed to the
	// schedule cache to classify SpliceMetrics exits. Both default to nil
	// (disabled, one branch per candidate).
	DeltaStats  *telemetry.DeltaStats
	SpliceStats *telemetry.SpliceStats
	// Granular, when non-nil, switches MovesInto to the granular proposal
	// paths: operators draw only moves whose key created arc lies in the
	// sparse k-nearest graph, falling back to the full proposal path when
	// the granular draw budget is exhausted.
	Granular *vrptw.NeighborLists
	// EvalWorkers, when > 1, shards EvalDataInto's delta evaluation over
	// that many goroutines with a deterministic positional merge; the
	// result is bit-identical to the serial path. Proposal stays serial
	// (it shares the caller's random stream).
	EvalWorkers int

	lastEval  *solution.Eval
	gran      []granularProposer // granular paths, aligned with ops (nil entries: full only)
	granFB    []uint8            // per-sweep fallback count; granular path memoized dead at the budget
	parEvals  []*solution.Eval   // per-worker schedule caches for EvalWorkers
	kindNames [NumKinds]string   // Name() of the first operator proposing each kind
	// Funnel entries resolved by SetOps: per operator (aligned with ops)
	// and per move kind.
	opStats   []*telemetry.OpStats
	kindStats [NumKinds]*telemetry.OpStats
}

// NewGenerator returns a Generator over the given operators (All() if ops
// is nil).
func NewGenerator(in *vrptw.Instance, ops []Operator) *Generator {
	if ops == nil {
		ops = All()
	}
	g := &Generator{in: in, ops: ops}
	g.gran = make([]granularProposer, len(ops))
	g.granFB = make([]uint8, len(ops))
	g.opStats = make([]*telemetry.OpStats, len(ops))
	for i, op := range ops {
		g.gran[i], _ = op.(granularProposer)
		if k := kindOf(op); k != KindNone && g.kindNames[k] == "" {
			g.kindNames[k] = op.Name()
		}
	}
	return g
}

// KindName is the name a move of kind k is counted and checkpointed
// under: the Name() of the first configured operator that proposes k, or
// "" when none does.
func (g *Generator) KindName(k MoveKind) string { return g.kindNames[k] }

// SetOps attaches the operator funnel table (nil detaches it), resolving
// every entry once: MovesInto counts each operator's exhaustions and
// granular fallbacks under its Name(), and KindStats serves the entry of
// a proposed move by its kind — an array index on the hot path instead of
// a name lookup per candidate.
func (g *Generator) SetOps(t *telemetry.OpTable) {
	for i, op := range g.ops {
		g.opStats[i] = t.Get(op.Name())
	}
	for k, name := range g.kindNames {
		if name != "" {
			g.kindStats[k] = t.Get(name)
		}
	}
}

// KindStats returns the funnel entry moves of kind k count under (nil
// when no table is attached or no configured operator proposes k).
func (g *Generator) KindStats(k MoveKind) *telemetry.OpStats { return g.kindStats[k] }

// eval returns the schedule cache for s, rebinding it incrementally when s
// differs from the last evaluated solution.
func (g *Generator) eval(s *solution.Solution) *solution.Eval {
	if g.lastEval == nil {
		g.lastEval = solution.NewEval(g.in, s)
	} else if g.lastEval.Solution() != s {
		g.lastEval.Reset(g.in, s)
	}
	g.lastEval.Stats = g.SpliceStats
	return g.lastEval
}

// CandidateBuffer holds the reusable storage of one candidate sweep: the
// flat move list, the index-aligned delta objectives, and the position
// index of the granular proposal paths. One buffer belongs to exactly one
// caller (a searcher or a worker) and is overwritten by every
// MovesInto/CandidatesInto call — after warm-up a full sweep runs at zero
// heap allocations.
type CandidateBuffer struct {
	Data []MoveData
	Objs []solution.Objectives
	pos  PosIndex
}

// MovesInto proposes up to size moves on s into buf.Data (reusing its
// storage), drawing from the granular paths when g.Granular is set. Each
// draw picks an operator uniformly and every failed proposal consumes the
// shared failure budget; a granular path that finds nothing within its
// attempt budget falls back to the full path before the failure is
// charged, so granular search degrades — never livelocks — on solutions
// whose sparse neighborhoods are exhausted. The solution is fixed for the
// whole sweep, so each operator's fallbacks are memoized: after granFallbackBudget fallbacks, further draws of the same
// operator count as exhausted and the sweep redraws — keeping the
// neighborhood granular (the point of the sparse graph) instead of
// silently degrading to the dense proposal path.
func (g *Generator) MovesInto(buf *CandidateBuffer, s *solution.Solution, r *rng.Rand, size int) {
	budget := g.MaxFailures
	if budget == 0 {
		budget = 50 * size
	}
	buf.Data = buf.Data[:0]
	granular := g.Granular != nil
	if granular {
		buf.pos.Reset(g.in, s)
		for i := range g.granFB {
			g.granFB[i] = 0
		}
	}
	for len(buf.Data) < size && budget > 0 {
		oi := r.Intn(len(g.ops))
		var d MoveData
		var ok bool
		switch {
		case granular && g.gran[oi] != nil && g.granFB[oi] < granFallbackBudget:
			d, ok = g.gran[oi].proposeGranular(g.in, s, &buf.pos, g.Granular, r)
			if !ok {
				g.granFB[oi]++
				g.opStats[oi].Fallback()
				d, ok = g.ops[oi].Propose(g.in, s, r)
			}
		case granular && g.gran[oi] != nil:
			// Memoized: the granular path already exhausted on this
			// solution and the fallback budget is spent; fail the draw.
		default:
			d, ok = g.ops[oi].Propose(g.in, s, r)
		}
		if ok {
			buf.Data = append(buf.Data, d)
		} else {
			g.opStats[oi].Exhaust()
			budget--
		}
	}
}

// CandidatesInto is the hot-path candidate sweep: MovesInto followed by
// EvalDataInto, entirely within buf's reusable storage.
func (g *Generator) CandidatesInto(buf *CandidateBuffer, s *solution.Solution, r *rng.Rand, size int) {
	g.MovesInto(buf, s, r, size)
	n := len(buf.Data)
	if cap(buf.Objs) < n {
		buf.Objs = make([]solution.Objectives, n)
	}
	buf.Objs = buf.Objs[:n]
	g.EvalDataInto(s, buf.Data, buf.Objs)
}

// EvalDataInto delta-evaluates an already-proposed flat move span against
// s's schedule cache into objs (len(objs) == len(data)), falling back to
// Apply per move when the delta declines. Evaluation is deterministic in
// (s, data) and independent of EvalWorkers: the parallel path shards the
// span positionally and every objective is written to its own index, so a
// chunk evaluated anywhere — serially, on another worker count, or
// re-evaluated after a fault — yields bit-identical objectives.
func (g *Generator) EvalDataInto(s *solution.Solution, data []MoveData, objs []solution.Objectives) {
	if len(data) == 0 {
		return
	}
	if g.EvalWorkers > 1 && len(data) >= 2*g.EvalWorkers {
		g.evalDataParallel(s, data, objs)
		return
	}
	e := g.eval(s)
	for i, d := range data {
		obj, ok := d.Delta(g.in, s, e)
		if !ok {
			g.DeltaStats.Fallback()
			obj = d.Apply(g.in, s).Obj
		} else {
			g.DeltaStats.Fast()
		}
		objs[i] = obj
	}
}

// evalDataParallel is EvalDataInto's sharded path: contiguous chunks of
// the span, one goroutine and one schedule cache per worker. Only the
// delta arithmetic runs concurrently; DeltaStats/SpliceStats are atomic
// and every result lands at its own index.
func (g *Generator) evalDataParallel(s *solution.Solution, data []MoveData, objs []solution.Objectives) {
	w := g.EvalWorkers
	if w > len(data) {
		w = len(data)
	}
	if cap(g.parEvals) < w {
		pe := make([]*solution.Eval, w)
		copy(pe, g.parEvals)
		g.parEvals = pe
	}
	evals := g.parEvals[:w]
	chunk := (len(data) + w - 1) / w
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		lo := k * chunk
		hi := lo + chunk
		if hi > len(data) {
			hi = len(data)
		}
		if lo >= hi {
			break
		}
		if evals[k] == nil {
			evals[k] = solution.NewEval(g.in, s)
		} else if evals[k].Solution() != s {
			evals[k].Reset(g.in, s)
		}
		evals[k].Stats = g.SpliceStats
		wg.Add(1)
		go func(e *solution.Eval, data []MoveData, objs []solution.Objectives) {
			defer wg.Done()
			for i, d := range data {
				obj, ok := d.Delta(g.in, s, e)
				if !ok {
					g.DeltaStats.Fallback()
					obj = d.Apply(g.in, s).Obj
				} else {
					g.DeltaStats.Fast()
				}
				objs[i] = obj
			}
		}(evals[k], data[lo:hi], objs[lo:hi])
	}
	wg.Wait()
}

// arcOK is the paper's local feasibility test for a newly created arc
// i -> j: even departing i as early as possible, can j still be reached by
// its due date? Arcs into the depot are always acceptable (a late return is
// plain tardiness, not an obvious local violation). The earliest departure
// is precomputed on the instance — this test runs in the innermost propose
// loop of every operator.
func arcOK(in *vrptw.Instance, i, j int) bool {
	if j == 0 {
		return true
	}
	return in.DepartReady(i)+in.Dist(i, j) <= in.Sites[j].Due
}

// before returns the site preceding position p of route (depot if p == 0).
func before(route []int, p int) int {
	if p == 0 {
		return 0
	}
	return route[p-1]
}

// remAt returns the customer at position i of the route with the length-l
// segment starting at seg removed, without building the remainder.
func remAt(route []int, seg, l, i int) int {
	if i < seg {
		return route[i]
	}
	return route[i+l]
}

// after returns the site following position p of route (depot if p is the
// last position).
func after(route []int, p int) int {
	if p == len(route)-1 {
		return 0
	}
	return route[p+1]
}

// attribute mixes an operator tag and up to two customer IDs into a tabu
// attribute (splitmix64 finalizer).
func attribute(op uint64, a, b int) tabu.Attribute {
	x := op<<56 ^ uint64(uint32(a))<<24 ^ uint64(uint32(b))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return tabu.Attribute(x)
}

// Operator tags used in attributes.
const (
	tagRelocate = iota + 1
	tagExchange
	tagTwoOpt
	tagTwoOptStar
	tagOrOpt
)

// concat builds a fresh route from the given segments.
func concat(segs ...[]int) []int {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	out := make([]int, 0, n)
	for _, s := range segs {
		out = append(out, s...)
	}
	return out
}
