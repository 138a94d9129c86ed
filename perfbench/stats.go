package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie strictly beyond it, so p90 needs >= 100
// samples and p50 needs >= 20.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether enough samples lie beyond it to report it. xs is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return s[k], n-(k+1) >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle values
// for even counts), 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime returns the CPU time the benchmark process has used so far. On a
// shared host the hypervisor now and then gives this guest's vCPUs to other
// guests; the kernel accounts that time as steal and leaves it out of CPU
// time. The Sim runs exactly one goroutine at a time, so the CPU time of an
// in-process solve is its wall time on a CPU of its own.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refKernelMS is the CPU time of one hostKernel call on the reference
// host, about the fastest it ran on a 2-vCPU Intel Xeon KVM guest.
const refKernelMS = 6.5

// kernelState is hostKernel's working set, allocated once.
var kernelState [1 << 12]float64

// kernelSink keeps hostKernel's result live.
var kernelSink float64

// hostKernel runs a fixed piece of the benchmark's own arithmetic and
// returns its CPU time (cpuTime). It shares no code with the program, so
// its time changes only with how fast the host runs it: on a shared host
// the other guests' load slows every core for minutes at a time, beyond
// what CPU time leaves out. Timed between a run's operations, it gives
// the run's host slowdown (hostSlowdown).
func hostKernel() time.Duration {
	c0 := cpuTime()
	x := &kernelState
	for i := range x {
		x[i] = float64(i%977) * 0.5
	}
	s := 0.0
	for r := 0; r < 300; r++ {
		for i := 1; i < len(x); i++ {
			x[i] = x[i-1]*0.999 + x[i]*0.001 + float64(r)
			s += x[i]
		}
	}
	kernelSink += s
	return cpuTime() - c0
}

// hostSlowdown is how much slower than on the quiet reference host the
// kernel ran: the median of its times over refKernelMS.
func hostSlowdown(kernelMS []float64) float64 {
	return median(kernelMS) / refKernelMS
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call the benchmark made into a layer of the program.
// Parent is the index of the enclosing span in the recorder, -1 for a root.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// recorder keeps the benchmark's own spans in memory. A nil recorder is
// the untraced path: start returns -1 and end is a no-op, so the traced
// and untraced runs execute the same code.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Since(r.t0)})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].end = time.Since(r.t0)
}

// selfTimes returns, per span name, the summed self time and the span
// count. A span's self time is its duration minus the part of its interval
// covered by its children (overlapping children are counted once).
func selfTimes(spans []span) map[string]selfTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]selfTime)
	for i, s := range spans {
		covered := time.Duration(0)
		var iv [][2]time.Duration
		for _, c := range children[i] {
			lo, hi := spans[c].start, spans[c].end
			if lo < s.start {
				lo = s.start
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var curLo, curHi time.Duration
		for k, v := range iv {
			if k == 0 || v[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
			} else if v[1] > curHi {
				curHi = v[1]
			}
		}
		covered += curHi - curLo
		st := out[s.name]
		st.total += s.end - s.start - covered
		st.count++
		out[s.name] = st
	}
	return out
}

type selfTime struct {
	total time.Duration
	count int
}

// per returns the mean self time per span in the given unit, 0 without spans.
func (s selfTime) per(unit time.Duration) float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count) / float64(unit)
}
