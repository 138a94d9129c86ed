package repro

// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure, plus ablation benches for the design choices called out in
// DESIGN.md §5. The table benches run the full harness at a micro scale so
// `go test -bench=.` stays laptop-friendly; custom metrics report the
// reproduced quantities (virtual runtimes, speedups, coverage). Use
// cmd/experiments -scale medium|paper for the real reproduction.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/deme"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/operators"
	"repro/internal/rng"
	"repro/internal/vrptw"
)

// microScale shrinks a table reproduction to benchmark size.
func microScale() exp.Scale {
	return exp.Scale{
		Name:              "bench",
		Runs:              1,
		InstancesPerClass: 1,
		MaxEvaluations:    2000,
		NeighborhoodSize:  50,
		Processors:        []int{3},
		ShrinkN:           80,
	}
}

func benchTable(b *testing.B, id string) {
	b.Helper()
	spec, err := exp.TableByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var last *exp.TableResult
	for i := 0; i < b.N; i++ {
		last, err = exp.RunTable(spec, microScale(), uint64(42+i), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the reproduced headline quantities of the last repetition.
	for _, r := range last.Rows {
		switch r.Alg {
		case core.Sequential:
			b.ReportMetric(r.Runtime, "seq-vtime-s")
		case core.Asynchronous:
			b.ReportMetric(r.SpeedupPct, "async-speedup-%")
		case core.Collaborative:
			b.ReportMetric(r.CovDom*100, "coll-coverage-%")
		}
	}
}

// BenchmarkTableI reproduces Table I (400 city, small windows) in micro.
func BenchmarkTableI(b *testing.B) { benchTable(b, "I") }

// BenchmarkTableII reproduces Table II (400 city, large windows) in micro.
func BenchmarkTableII(b *testing.B) { benchTable(b, "II") }

// BenchmarkTableIII reproduces Table III (600 city, small windows) in micro.
func BenchmarkTableIII(b *testing.B) { benchTable(b, "III") }

// BenchmarkTableIV reproduces Table IV (600 city, large windows) in micro.
func BenchmarkTableIV(b *testing.B) { benchTable(b, "IV") }

// BenchmarkFigure1 regenerates the async trajectory of Figure 1.
func BenchmarkFigure1(b *testing.B) {
	var points int
	for i := 0; i < b.N; i++ {
		traj, err := exp.RunFigure1(60, 3, 1500, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		points = len(traj.Points)
	}
	b.ReportMetric(float64(points), "trajectory-points")
}

// benchInstance is shared by the ablation benches.
func benchInstance(b *testing.B, n int) *Instance {
	b.Helper()
	in, err := Generate(GenConfig{Class: R1, N: n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkAlgorithms compares the real CPU cost of one run of each
// variant at a fixed small budget.
func BenchmarkAlgorithms(b *testing.B) {
	in := benchInstance(b, 100)
	for _, tc := range []struct {
		alg   Algorithm
		procs int
	}{
		{Sequential, 1}, {Synchronous, 3}, {Asynchronous, 3}, {Collaborative, 3}, {Combined, 4},
	} {
		b.Run(tc.alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.MaxEvaluations = 2000
				cfg.NeighborhoodSize = 50
				cfg.Processors = tc.procs
				cfg.Seed = uint64(i)
				if _, err := Solve(tc.alg, in, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationArchiveSize probes the archive-capacity design choice
// (paper: 20) by reporting the best feasible distance found per size.
func BenchmarkAblationArchiveSize(b *testing.B) {
	in := benchInstance(b, 80)
	for _, size := range []int{5, 20, 80} {
		b.Run(itoa(size), func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.MaxEvaluations = 3000
				cfg.NeighborhoodSize = 50
				cfg.ArchiveSize = size
				cfg.Seed = uint64(i)
				res, err := Solve(Sequential, in, cfg)
				if err != nil {
					b.Fatal(err)
				}
				best = res.BestDistance()
			}
			b.ReportMetric(best, "best-distance")
		})
	}
}

// BenchmarkAblationWaitTimeout probes the asynchronous decision function's
// c3 threshold: a tiny timeout degenerates toward never waiting, a huge
// one toward the synchronous barrier.
func BenchmarkAblationWaitTimeout(b *testing.B) {
	in := benchInstance(b, 100)
	for _, tc := range []struct {
		name    string
		timeout float64
	}{{"tiny", 1e-6}, {"default", 0}, {"huge", 1e6}} {
		b.Run(tc.name, func(b *testing.B) {
			var vtime float64
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.MaxEvaluations = 2000
				cfg.NeighborhoodSize = 60
				cfg.Processors = 3
				cfg.WaitTimeout = tc.timeout
				cfg.Seed = uint64(i)
				res, err := Solve(Asynchronous, in, cfg)
				if err != nil {
					b.Fatal(err)
				}
				vtime = res.Elapsed
			}
			b.ReportMetric(vtime, "vtime-s")
		})
	}
}

// BenchmarkAblationMachine contrasts the calibrated Origin 3800 model with
// an ideal machine, isolating algorithmic from machine effects.
func BenchmarkAblationMachine(b *testing.B) {
	in := benchInstance(b, 100)
	for _, tc := range []struct {
		name string
		m    Machine
	}{{"origin3800", Origin3800()}, {"ideal", IdealMachine()}} {
		b.Run(tc.name, func(b *testing.B) {
			var vtime float64
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.MaxEvaluations = 2000
				cfg.NeighborhoodSize = 60
				cfg.Processors = 3
				cfg.Seed = uint64(i)
				res, err := SolveOn(Asynchronous, in, cfg, NewSimRuntime(tc.m))
				if err != nil {
					b.Fatal(err)
				}
				vtime = res.Elapsed
			}
			b.ReportMetric(vtime, "vtime-s")
		})
	}
}

// BenchmarkAblationShareRouting contrasts the paper's rotating
// single-recipient communication list with broadcasting improving
// solutions to every peer, reporting exchanged-message counts and the
// collaborative run's virtual time.
func BenchmarkAblationShareRouting(b *testing.B) {
	in := benchInstance(b, 80)
	for _, tc := range []struct {
		name      string
		broadcast bool
	}{{"rotating-list", false}, {"broadcast", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var shares int
			var vtime float64
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.MaxEvaluations = 3000
				cfg.NeighborhoodSize = 50
				cfg.Processors = 4
				cfg.RestartIterations = 20
				cfg.ShareBroadcast = tc.broadcast
				cfg.Seed = uint64(i)
				res, err := Solve(Collaborative, in, cfg)
				if err != nil {
					b.Fatal(err)
				}
				shares = res.Shares
				vtime = res.Elapsed
			}
			b.ReportMetric(float64(shares), "shares")
			b.ReportMetric(vtime, "vtime-s")
		})
	}
}

// BenchmarkAblationOperators measures one candidate sweep (propose and
// delta-evaluate) with the full operator mix against single-operator
// generators (the paper draws all five with equal probability).
func BenchmarkAblationOperators(b *testing.B) {
	raw, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := initialSolution(b, raw)
	cases := map[string][]operators.Operator{"all-five": nil}
	for _, op := range operators.All() {
		cases[op.Name()] = []operators.Operator{op}
	}
	for name, ops := range cases {
		b.Run(name, func(b *testing.B) {
			g := operators.NewGenerator(raw, ops)
			r := rng.New(1)
			var buf operators.CandidateBuffer
			for i := 0; i < b.N; i++ {
				g.CandidatesInto(&buf, s, r, 100)
			}
		})
	}
}

func initialSolution(b *testing.B, in *vrptw.Instance) *Solution {
	b.Helper()
	cfg := DefaultConfig()
	cfg.MaxEvaluations = 300
	cfg.NeighborhoodSize = 30
	res, err := SolveOn(Sequential, in, cfg, NewSimRuntime(IdealMachine()))
	if err != nil {
		b.Fatal(err)
	}
	return res.Front[0]
}

// BenchmarkCoverageMetric measures the paper's quality metric itself.
func BenchmarkCoverageMetric(b *testing.B) {
	in := benchInstance(b, 60)
	cfg := DefaultConfig()
	cfg.MaxEvaluations = 1500
	cfg.NeighborhoodSize = 40
	a, err := Solve(Sequential, in, cfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Seed = 2
	c, err := Solve(Sequential, in, cfg)
	if err != nil {
		b.Fatal(err)
	}
	oa, oc := metrics.Objs(a.Front), metrics.Objs(c.Front)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.Coverage(oa, oc)
	}
}

// BenchmarkSimBackend measures the discrete-event scheduler's raw
// throughput: ping-pong rounds between two processes.
func BenchmarkSimBackend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := deme.NewSim(deme.Ideal())
		err := s.Run(2, func(p deme.Proc) {
			if p.ID() == 0 {
				for k := 0; k < 100; k++ {
					p.Send(1, 1, nil, 0)
					p.Recv()
				}
				p.Send(1, 2, nil, 0)
			} else {
				for {
					m, ok := p.Recv()
					if !ok || m.Tag == 2 {
						return
					}
					p.Send(0, 1, nil, 0)
				}
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
