package operators

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

// TestGranularMovesValidSubset is the granular ⊆ full property: every move
// a granular sweep proposes must be a valid full-neighborhood move — it
// applies to a solution that still validates and its delta objectives
// equal the materialized objectives. Moves from the granular proposal
// paths must additionally create at least one arc of the sparse k-nearest
// graph; the sweep itself may also contain full-path fallback moves, which
// TestGranularProposalsInSparseGraph excludes by driving the proposers
// directly.
func TestGranularMovesValidSubset(t *testing.T) {
	for _, k := range []int{3, 10, 25} {
		in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 80, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		nl := in.NeighborLists(k)
		s := greedyFill(in)
		g := NewGenerator(in, nil)
		g.Granular = nl
		r := rng.New(7)
		var buf CandidateBuffer
		for sweep := 0; sweep < 5; sweep++ {
			g.CandidatesInto(&buf, s, r, 120)
			if len(buf.Data) == 0 {
				t.Fatalf("k=%d sweep %d: no granular candidates", k, sweep)
			}
			for i, d := range buf.Data {
				applied := d.Apply(in, s)
				if err := solution.Validate(in, applied); err != nil {
					t.Fatalf("k=%d sweep %d move %d (kind %d): invalid after apply: %v",
						k, sweep, i, d.Kind, err)
				}
				w := applied.Obj
				got := buf.Objs[i]
				if math.Abs(got.Distance-w.Distance) > deltaTol ||
					got.Vehicles != w.Vehicles ||
					math.Abs(got.Tardiness-w.Tardiness) > deltaTol {
					t.Fatalf("k=%d sweep %d move %d (kind %d): delta obj %+v != materialized %+v",
						k, sweep, i, d.Kind, got, w)
				}
			}
			// Walk the search forward so later sweeps see other solutions.
			s = buf.Data[0].Apply(in, s)
		}
	}
}

// TestGranularProposalsInSparseGraph drives every operator's granular
// proposal path directly and asserts the defining restriction: each
// proposed move creates at least one arc of the sparse k-nearest graph.
func TestGranularProposalsInSparseGraph(t *testing.T) {
	for _, k := range []int{3, 10, 25} {
		in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 80, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		nl := in.NeighborLists(k)
		inList := func(i, j int) bool {
			for _, m := range nl.Of(i) {
				if int(m) == j {
					return true
				}
			}
			return false
		}
		s := greedyFill(in)
		px := &PosIndex{}
		px.Reset(in, s)
		r := rng.New(13)
		before := arcSet(s)
		for _, op := range All() {
			gp, ok := op.(granularProposer)
			if !ok {
				t.Fatalf("operator %s has no granular proposal path", op.Name())
			}
			proposed := 0
			for try := 0; try < 200; try++ {
				d, ok := gp.proposeGranular(in, s, px, nl, r)
				if !ok {
					continue
				}
				proposed++
				applied := d.Apply(in, s)
				if err := solution.Validate(in, applied); err != nil {
					t.Fatalf("k=%d %s: invalid granular move: %v", k, op.Name(), err)
				}
				created := false
				for arc := range arcSet(applied) {
					if !before[arc] && inList(arc[0], arc[1]) {
						created = true
						break
					}
				}
				if !created {
					t.Fatalf("k=%d %s: granular move %+v creates no sparse-graph arc", k, op.Name(), d)
				}
			}
			if k >= 10 && proposed == 0 {
				t.Errorf("k=%d %s: granular path proposed nothing in 200 tries", k, op.Name())
			}
		}
	}
}

// TestGranularSweepDeterministic pins the granular engine's determinism:
// the same seed yields the same move sequence, and re-running on the same
// solution with a fresh buffer yields identical data and objectives.
func TestGranularSweepDeterministic(t *testing.T) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 80, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := greedyFill(in)
	run := func() ([]MoveData, []solution.Objectives) {
		g := NewGenerator(in, nil)
		g.Granular = in.NeighborLists(10)
		var buf CandidateBuffer
		g.CandidatesInto(&buf, s, rng.New(11), 150)
		return append([]MoveData(nil), buf.Data...), append([]solution.Objectives(nil), buf.Objs...)
	}
	d1, o1 := run()
	d2, o2 := run()
	if len(d1) != len(d2) {
		t.Fatalf("sweep lengths differ: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] || o1[i] != o2[i] {
			t.Fatalf("sweep diverges at %d: %+v/%+v vs %+v/%+v", i, d1[i], o1[i], d2[i], o2[i])
		}
	}
}

// TestCandidatesZeroAlloc is the zero-alloc gate of the candidate engine:
// after warm-up, a full CandidatesInto sweep — full or granular — must not
// touch the heap. testing.AllocsPerRun runs the function once before
// measuring, which absorbs the buffer growth of the first sweep.
func TestCandidatesZeroAlloc(t *testing.T) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := greedyFill(in)
	for _, tc := range []struct {
		name string
		k    int
	}{{"full", 0}, {"granular", 15}} {
		g := NewGenerator(in, nil)
		if tc.k > 0 {
			g.Granular = in.NeighborLists(tc.k)
		}
		r := rng.New(3)
		var buf CandidateBuffer
		if avg := testing.AllocsPerRun(50, func() {
			g.CandidatesInto(&buf, s, r, 200)
		}); avg != 0 {
			t.Errorf("%s: CandidatesInto allocates %.1f objects per sweep, want 0", tc.name, avg)
		}
	}

	// The searcher's view: every sweep runs on the one-move child of the
	// last, so the schedule cache and position index rebind incrementally
	// each time. The chain includes a move that empties a route, and the
	// cycle wraps from its end back to its start, an unrelated solution.
	chain := []*solution.Solution{s}
	r := rng.New(7)
	ops := Extended()
	for len(chain) < 12 {
		cur := chain[len(chain)-1]
		if d, ok := ops[r.Intn(len(ops))].Propose(in, cur, r); ok {
			chain = append(chain, d.Apply(in, cur))
		}
	}
	chain = append(chain, emptyRoute(in, chain[len(chain)-1], 1)...)
	if last := chain[len(chain)-1]; len(last.Routes) >= len(chain[len(chain)-2].Routes) {
		t.Fatal("chain does not drop a route")
	}
	for _, k := range []int{0, 15} {
		g := NewGenerator(in, nil)
		if k > 0 {
			g.Granular = in.NeighborLists(k)
		}
		var buf CandidateBuffer
		cycle := func() {
			for _, cs := range chain {
				g.CandidatesInto(&buf, cs, r, 200)
			}
		}
		// Warm until a whole cycle runs without allocating: Reset moves
		// schedule buffers between slots with their routes, so a buffer
		// may first meet the chain's longest route a few cycles in.
		warm := 0
		for ; warm < 50 && mallocs(cycle) != 0; warm++ {
		}
		if warm == 50 {
			t.Errorf("chain k=%d: still allocating after %d warm-up cycles", k, warm)
		}
		if n := mallocs(func() {
			for i := 0; i < 20; i++ {
				cycle()
			}
		}); n != 0 {
			t.Errorf("chain k=%d: 20 warm cycles of %d rebinding sweeps allocate %d objects, want 0", k, len(chain), n)
		}
	}
}

// mallocs returns the exact number of heap allocations f makes, measured
// like testing.AllocsPerRun (GOMAXPROCS 1) but without averaging, so a
// single allocation over many sweeps still shows.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestEvalDataIntoParallelMatchesSerial pins the parallel evaluator's
// bit-identity at the engine level: identical objective words for every
// worker count, including counts that do not divide the span evenly.
func TestEvalDataIntoParallelMatchesSerial(t *testing.T) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 80, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := greedyFill(in)
	g := NewGenerator(in, nil)
	var buf CandidateBuffer
	g.MovesInto(&buf, s, rng.New(9), 157)
	serial := make([]solution.Objectives, len(buf.Data))
	g.EvalDataInto(s, buf.Data, serial)
	for _, w := range []int{2, 3, 4, 7, 16} {
		gw := NewGenerator(in, nil)
		gw.EvalWorkers = w
		objs := make([]solution.Objectives, len(buf.Data))
		gw.EvalDataInto(s, buf.Data, objs)
		for i := range objs {
			if objs[i] != serial[i] {
				t.Fatalf("EvalWorkers=%d: objs[%d] = %+v, serial %+v", w, i, objs[i], serial[i])
			}
		}
	}
}

// benchSweep builds the 400-customer sweep fixture shared by the *400
// benchmarks: the paper's 200-move neighborhood on an R1 instance of 400
// customers.
func benchSweep(b *testing.B, granularK int) (*Generator, *solution.Solution, *rng.Rand) {
	b.Helper()
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := greedyFill(in)
	g := NewGenerator(in, nil)
	if granularK > 0 {
		g.Granular = in.NeighborLists(granularK)
	}
	return g, s, rng.New(1)
}

// BenchmarkCandidatesInto400 measures the zero-alloc full-neighborhood
// sweep into a reused buffer on the 400-customer instance.
func BenchmarkCandidatesInto400(b *testing.B) {
	g, s, r := benchSweep(b, 0)
	var buf CandidateBuffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CandidatesInto(&buf, s, r, 200)
	}
}

// BenchmarkCandidatesGranular400 measures the granular zero-alloc sweep on
// the 400-customer instance — the proposal side of the searcher's <=150µs
// iteration budget.
func BenchmarkCandidatesGranular400(b *testing.B) {
	g, s, r := benchSweep(b, 20)
	var buf CandidateBuffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CandidatesInto(&buf, s, r, 200)
	}
}
