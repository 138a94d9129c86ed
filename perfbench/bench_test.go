package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/solution"
	"repro/internal/vrptw"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1000, 0.99, 990, true},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestArrivalScheduleDeterministic(t *testing.T) {
	a, b := arrivals(7, 10, 300, 48, 0.5), arrivals(7, 10, 300, 48, 0.5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, arrivals(8, 10, 300, 48, 0.5)) {
		t.Fatal("different seeds gave the same schedule")
	}
	gap := time.Second / 10
	kinds := map[int]arrival{}
	count := map[int]int{}
	for i, x := range a {
		slot := time.Duration(i) * gap
		if x.at < slot || x.at >= slot+gap {
			t.Fatalf("arrival %d at %v outside its slot [%v, %v)", i, x.at, slot, slot+gap)
		}
		k := x
		k.at = 0
		if prev, ok := kinds[x.job]; ok && prev != k {
			t.Fatalf("job %d recurs as %+v, first as %+v", x.job, k, prev)
		}
		kinds[x.job] = k
		count[x.job]++
	}
	mutated := 0
	perInstance := map[int]int{}
	for job, k := range kinds {
		if c := count[job]; c != 6 && c != 7 {
			t.Errorf("job %d recurs %d times, want 300/48 rounded either way", job, c)
		}
		if k.mutate {
			mutated++
			perInstance[k.inst]++
		}
	}
	for inst := 0; inst < instancePool; inst++ {
		if perInstance[inst] != 24/instancePool {
			t.Errorf("instance %d has %d mutated jobs, want %d", inst, perInstance[inst], 24/instancePool)
		}
	}
	if len(kinds) != 48 || mutated != 24 {
		t.Errorf("%d distinct jobs with %d mutated, want 48 with exactly 24", len(kinds), mutated)
	}
}

// tinyInstance has a depot at the origin and customers at (3,4) and (0,5).
func tinyInstance(t *testing.T) *vrptw.Instance {
	t.Helper()
	in, err := vrptw.New("tiny", []vrptw.Site{
		{ID: 0, Due: 1000},
		{ID: 1, X: 3, Y: 4, Demand: 5, Due: 1000, Service: 1},
		{ID: 2, X: 0, Y: 5, Demand: 5, Ready: 20, Due: 30, Service: 1},
	}, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestHVReferenceFromInstanceOnly(t *testing.T) {
	in := tinyInstance(t)
	veh, dist := hvRef(in)
	if veh != 3 || dist != 20 {
		t.Fatalf("hvRef = (%g, %g), want (3, 20): N+1 vehicles, twice the depot distances", veh, dist)
	}
	// Two instances with the same sites give the same reference whatever
	// their fleet, capacity or name, and fronts do not enter it.
	other, err := vrptw.New("other", in.Sites, 7, 99)
	if err != nil {
		t.Fatal(err)
	}
	if v2, d2 := hvRef(other); v2 != veh || d2 != dist {
		t.Fatalf("hvRef depends on more than the sites: (%g, %g)", v2, d2)
	}
	// One feasible point (1 vehicle, distance 10) dominates (3-1)*(20-10)
	// of the 3*20 box; an infeasible one adds nothing.
	front := []point{{veh: 1, dist: 10}, {veh: 1, dist: 5, tard: 2}}
	if got := frontHV(in, front); math.Abs(got-20.0/60) > 1e-12 {
		t.Fatalf("frontHV = %g, want %g", got, 20.0/60)
	}
	// A second point with more vehicles and less distance adds its strip.
	front = append(front, point{veh: 2, dist: 4})
	if got, want := frontHV(in, front), (1*10+1*16)/60.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("frontHV = %g, want %g", got, want)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 40 * ms},
		{name: "b", parent: 0, start: 30 * ms, end: 50 * ms}, // overlaps a
		{name: "c", parent: 1, start: 15 * ms, end: 20 * ms}, // a's child
		{name: "a", parent: 0, start: 90 * ms, end: 120 * ms},
	}
	st := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"root": 100*ms - 40*ms - 10*ms, // children cover [10,50] and [90,100]
		"a":    30*ms - 5*ms + 30*ms,
		"b":    20 * ms,
		"c":    5 * ms,
	} {
		if st[name].total != want {
			t.Errorf("self(%s) = %v, want %v", name, st[name].total, want)
		}
	}
	if st["a"].count != 2 || st["a"].per(ms) != 27.5 {
		t.Errorf("a: count %d, mean %g ms", st["a"].count, st["a"].per(ms))
	}
	var nilRec *recorder
	if id := nilRec.start("x", -1); id != -1 {
		t.Errorf("untraced start returned %d", id)
	}
	nilRec.end(-1)
}

func TestOracle(t *testing.T) {
	in := tinyInstance(t)
	routes := [][]int{{1, 2}}
	s := solution.New(in, routes)
	d, v, tard, err := recompute(in, routes)
	if err != nil {
		t.Fatal(err)
	}
	if !near(d, s.Obj.Distance) || v != s.Obj.Vehicles || !near(tard, s.Obj.Tardiness) {
		t.Fatalf("oracle (%g, %g, %g) disagrees with the program %+v", d, v, tard, s.Obj)
	}
	if err := checkFront(in, pointsOf([]*solution.Solution{s})); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]point{
		"wrong distance": {{dist: d + 1, veh: v, tard: tard, routes: routes}},
		"twice":          {{dist: d, veh: v, tard: tard, routes: [][]int{{1, 2}, {2}}}},
		"missing":        {{dist: d, veh: v, tard: tard, routes: [][]int{{1}}}},
		"empty":          nil,
	} {
		if err := checkFront(in, bad); err == nil {
			t.Errorf("%s: oracle accepted a bad front", name)
		}
	}
	small, err := vrptw.New("small", in.Sites, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := recompute(small, routes); err == nil {
		t.Error("oracle accepted a route over capacity")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the benchmark's metric lists in
// step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	// Every declared workload runs; service-mixed also runs, by hand only.
	if len(cfg.Workloads) != len(workloads)-1 || workloads["service-mixed"] == nil {
		t.Errorf("%d workloads declared, the benchmark runs %d besides service-mixed", len(cfg.Workloads), len(workloads)-1)
	}
	for _, w := range cfg.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not run", w.Name)
		}
	}
	if len(cfg.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, the benchmark prints %d", len(cfg.EndToEnd), len(endToEnd))
	}
	for i, m := range cfg.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, the benchmark prints %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(cfg.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, the benchmark prints %d", len(cfg.PerLayer), len(layerMetrics))
	}
	for i, m := range cfg.PerLayer {
		l := layerMetrics[i]
		if m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, the benchmark has %+v", i, m, l)
		}
	}
}
