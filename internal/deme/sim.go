// The build constraint raises this file's language version to Go 1.23,
// which iter.Pull needs. The module's go line stays at 1.22 because the
// perfbench module, which requires this one, still declares go 1.22 and
// would otherwise need its go.mod rewritten before it builds.

//go:build go1.23

package deme

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"sort"

	"repro/internal/rng"
)

// Sim is the deterministic discrete-event backend. Process bodies run as
// coroutines built with iter.Pull: the scheduler resumes a process by
// calling its next function, and the process hands control back by
// calling the coroutine's yield function, a direct goroutine switch with
// no channel operation or trip through the Go scheduler. Exactly one
// goroutine — the scheduler or a single process — executes at any moment,
// and the scheduler always advances the process with the globally
// smallest virtual time, so results are independent of host scheduling
// and fully reproducible.
type Sim struct {
	machine Machine
	elapsed float64

	// Per-Run state (one Run at a time). These live on Sim rather than
	// in Run's frame so that simProc.Send can reach sibling mailboxes.
	procs []*simProc
	seq   uint64
	stats []ProcStats

	// restore holds per-process runtime snapshots to apply at the next
	// runCtx; consumed (one-shot) so later Runs start fresh.
	restore []ProcSnapshot
}

// NewSim returns a simulator of the given machine.
func NewSim(m Machine) *Sim { return &Sim{machine: m} }

// Elapsed implements Runtime.
func (s *Sim) Elapsed() float64 { return s.elapsed }

type simState int

const (
	stReady   simState = iota // runnable at its clock
	stTryRecv                 // runnable; scheduler must answer a poll first
	stBlocked                 // waiting for mail or deadline
	stDone                    // body returned
)

// mail is a queued message with its delivery time.
type mail struct {
	arrival float64
	seq     uint64 // global sequence number; deterministic tie-break
	msg     Message
}

// mailHeap is a binary min-heap of mail ordered by (arrival, seq). The
// order is total, so the pop sequence does not depend on the heap's
// shape. Typed push/pop keep the hot path free of the interface boxing
// container/heap needs.
type mailHeap []mail

func (h mailHeap) less(i, j int) bool {
	if h[i].arrival != h[j].arrival {
		return h[i].arrival < h[j].arrival
	}
	return h[i].seq < h[j].seq
}

func (h *mailHeap) push(m mail) {
	q := append(*h, m)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *mailHeap) pop() mail {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = mail{} // drop the payload reference
	q = q[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && q.less(r, j) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q
	return top
}

type simProc struct {
	sim    *Sim
	id     int
	n      int
	clock  float64
	jitter *rng.Rand

	speed float64 // persistent slowdown factor, >= 1
	stat  ProcStats

	state    simState
	deadline float64 // absolute wake deadline while blocked (Inf for Recv)
	mailbox  mailHeap

	// next resumes the body's coroutine until it yields or returns;
	// stop ends an unfinished coroutine; suspend is the coroutine's yield
	// function, valid while the body runs.
	next    func() (struct{}, bool)
	stop    func()
	suspend func(struct{}) bool

	// reply slot filled by the scheduler before resuming a receive.
	replyMsg Message
	replyOK  bool

	panicVal any
}

// ID implements Proc.
func (p *simProc) ID() int { return p.id }

// P implements Proc.
func (p *simProc) P() int { return p.n }

// Now implements Proc.
func (p *simProc) Now() float64 { return p.clock }

// Compute implements Proc: advance the virtual clock by the cost scaled by
// the machine's noise model (persistent skew, uniform jitter, transient
// stall spikes) and yield so lower-clock processes can run.
func (p *simProc) Compute(seconds float64) {
	if seconds < 0 {
		panic("deme: negative compute cost")
	}
	m := &p.sim.machine
	seconds *= p.speed
	if m.Jitter > 0 {
		seconds *= 1 + m.Jitter*(2*p.jitter.Float64()-1)
	}
	if m.SpikeProb > 0 && p.jitter.Float64() < m.SpikeProb {
		seconds *= 1 + (m.SpikeMax-1)*p.jitter.Float64()
	}
	p.clock += seconds
	p.stat.Compute += seconds
	p.state = stReady
	p.yield()
}

// Send implements Proc. The sender is charged the per-message overhead and
// the bandwidth share; delivery happens Latency later. Send does not yield:
// enqueuing mail cannot violate causality because arrival times never
// precede the sender's clock.
func (p *simProc) Send(to, tag int, data any, bytes int) {
	m := &p.sim.machine
	cost := m.SendOverhead
	if m.Bandwidth > 0 && bytes > 0 {
		cost += float64(bytes) / m.Bandwidth
	}
	p.clock += cost
	p.stat.MsgsSent++
	p.stat.BytesSent += bytes
	target := p.sim.procs[to]
	p.sim.seq++
	target.mailbox.push(mail{
		arrival: p.clock + m.Latency,
		seq:     p.sim.seq,
		msg:     Message{From: p.id, Tag: tag, Data: data, Bytes: bytes},
	})
}

// TryRecv implements Proc.
func (p *simProc) TryRecv() (Message, bool) {
	p.state = stTryRecv
	p.yield()
	return p.replyMsg, p.replyOK
}

// Recv implements Proc.
func (p *simProc) Recv() (Message, bool) {
	start := p.clock
	p.state = stBlocked
	p.deadline = math.Inf(1)
	p.yield()
	p.stat.Blocked += p.clock - start
	return p.replyMsg, p.replyOK
}

// RecvTimeout implements Proc.
func (p *simProc) RecvTimeout(seconds float64) (Message, bool) {
	if seconds < 0 {
		seconds = 0
	}
	start := p.clock
	p.state = stBlocked
	p.deadline = p.clock + seconds
	p.yield()
	p.stat.Blocked += p.clock - start
	return p.replyMsg, p.replyOK
}

// Alive implements Proc. Exactly one goroutine of a Sim runs at a time, so
// reading a sibling's state is race-free.
func (p *simProc) Alive(id int) bool { return p.sim.procs[id].state != stDone }

// Snapshot implements Snapshotter: the process's clock, speed skew and
// jitter-stream state, captured at a quiescent point chosen by the body.
func (p *simProc) Snapshot() ProcSnapshot {
	return ProcSnapshot{Clock: p.clock, Speed: p.speed, Jitter: p.jitter.State()}
}

// RestoreProcs implements Restorer: the next Run's processes start from
// the given snapshots (indexed by ID) instead of fresh clocks and jitter
// streams. Entries with Speed 0 — processes captured on a backend without
// runtime state — are skipped.
func (s *Sim) RestoreProcs(snaps []ProcSnapshot) {
	s.restore = snaps
}

// errStopped unwinds a body whose coroutine was stopped while suspended.
var errStopped = errors.New("deme: process stopped")

// yield hands control to the scheduler and returns when it resumes this
// process. A coroutine stopped during teardown never resumes: the body
// unwinds with errStopped, which the coroutine's own recover absorbs.
func (p *simProc) yield() {
	if !p.suspend(struct{}{}) {
		panic(errStopped)
	}
}

// start wraps body in p's coroutine. A panic in the body is recorded in
// p.panicVal rather than propagated, so next and stop never panic. A body
// that calls runtime.Goexit (t.FailNow in a test) ends the goroutine that
// called Run as well, after Run has stopped the other processes.
func (p *simProc) start(body func(Proc)) {
	p.next, p.stop = iter.Pull(func(suspend func(struct{}) bool) {
		p.suspend = suspend
		defer func() {
			if r := recover(); r != nil && r != errStopped {
				p.panicVal = r
			}
			p.state = stDone
		}()
		body(p)
	})
}

// wake returns the virtual time at which a blocked process can proceed:
// the earliest deliverable mail or the deadline, never before its clock.
func (p *simProc) wake() float64 {
	w := p.deadline
	if len(p.mailbox) > 0 && p.mailbox[0].arrival < w {
		w = p.mailbox[0].arrival
	}
	if w < p.clock {
		w = p.clock
	}
	return w
}

// Run implements Runtime.
func (s *Sim) Run(n int, body func(Proc)) error {
	return s.runCtx(nil, n, body)
}

// RunContext implements ContextRunner. A cancelled context releases every
// blocked receive with ok=false at its current virtual clock (instead of
// sleeping to its deadline), so bodies that poll the context unwind within
// one loop turn. An uncancelled context leaves the event order — and hence
// the simulation's determinism — completely untouched.
func (s *Sim) RunContext(ctx context.Context, n int, body func(Proc)) error {
	return s.runCtx(ctx, n, body)
}

func (s *Sim) runCtx(ctx context.Context, n int, body func(Proc)) error {
	if n < 1 {
		return fmt.Errorf("deme: Run needs at least one process, got %d", n)
	}
	s.procs = make([]*simProc, n)
	s.seq = 0
	seeder := rng.New(s.machine.Seed)
	for i := range s.procs {
		jr := seeder.Split()
		speed := 1.0
		if s.machine.Skew > 0 {
			u := jr.Float64()
			speed = 1 + s.machine.Skew*u*u*u
		}
		s.procs[i] = &simProc{
			sim:    s,
			id:     i,
			n:      n,
			jitter: jr,
			speed:  speed,
			state:  stReady,
		}
	}
	if s.restore != nil {
		for i, p := range s.procs {
			if i >= len(s.restore) || s.restore[i].Speed <= 0 {
				continue
			}
			sn := s.restore[i]
			p.clock = sn.Clock
			p.speed = sn.Speed
			p.jitter.SetState(sn.Jitter)
		}
		s.restore = nil
	}
	for _, p := range s.procs {
		p.start(body)
	}
	// Every coroutine has finished when the loop below ends normally;
	// stopping them all on the way out (a no-op for finished ones) also
	// covers a scheduler that unwinds early, so no goroutine outlives Run.
	defer func() {
		for _, p := range s.procs {
			p.stop()
		}
		s.procs = nil
	}()

	running := n
	var firstPanic error
	cancelled := false
	events := 0
	for running > 0 {
		// Poll the context every few events only: Err takes a lock, and
		// compute-heavy simulations yield millions of times.
		if ctx != nil && !cancelled && events%64 == 0 {
			cancelled = ctx.Err() != nil
		}
		events++
		p := s.pickNext()
		switch {
		case cancelled && p != nil && p.state == stBlocked:
			// Cancelled: release the receive at the process's current
			// clock instead of sleeping to its mail or deadline, so
			// the body can observe the cancellation at its loop head.
			p.replyMsg, p.replyOK = Message{}, false
		case p == nil:
			// Global deadlock: every live process waits forever.
			// Release them deterministically with ok=false.
			p = s.minBlocked()
			p.replyMsg, p.replyOK = Message{}, false
		case p.state == stTryRecv:
			p.replyMsg, p.replyOK = s.deliver(p)
		case p.state == stBlocked:
			w := p.wake()
			if math.IsInf(w, 1) {
				// Only reachable when other procs can still send;
				// pickNext guarantees w is minimal, so this is the
				// deadlock path handled above. Defensive fallback:
				p.replyOK = false
				break
			}
			if w > p.clock {
				p.clock = w
			}
			p.replyMsg, p.replyOK = s.deliver(p)
		}
		p.state = stReady
		p.next()
		if p.state == stDone {
			running--
			if p.panicVal != nil && firstPanic == nil {
				firstPanic = fmt.Errorf("deme: process %d panicked: %v", p.id, p.panicVal)
			}
		}
	}
	s.elapsed = 0
	s.stats = make([]ProcStats, len(s.procs))
	for i, p := range s.procs {
		if p.clock > s.elapsed {
			s.elapsed = p.clock
		}
		p.stat.End = p.clock
		s.stats[i] = p.stat
	}
	return firstPanic
}

// pickNext selects the live process with the smallest next event time:
// ready processes keyed by their clock, blocked ones by their wake time.
// Returns nil when all live processes are blocked forever.
func (s *Sim) pickNext() *simProc {
	var best *simProc
	bestKey := math.Inf(1)
	for _, p := range s.procs {
		var key float64
		switch p.state {
		case stDone:
			continue
		case stReady, stTryRecv:
			key = p.clock
		case stBlocked:
			key = p.wake()
		}
		if key < bestKey || (key == bestKey && best != nil && p.id < best.id) {
			best, bestKey = p, key
		}
	}
	if best != nil && math.IsInf(bestKey, 1) {
		return nil
	}
	return best
}

// minBlocked returns the lowest-ID blocked process (used on deadlock).
func (s *Sim) minBlocked() *simProc {
	ids := make([]int, 0, len(s.procs))
	for _, p := range s.procs {
		if p.state == stBlocked || p.state == stTryRecv {
			ids = append(ids, p.id)
		}
	}
	sort.Ints(ids)
	if len(ids) == 0 {
		// All remaining are ready; pick the first live one (cannot
		// happen in a correct deadlock, defensive only).
		for _, p := range s.procs {
			if p.state != stDone {
				return p
			}
		}
	}
	return s.procs[ids[0]]
}

// deliver pops the earliest deliverable message for p, charging the
// receive overhead. A blocked caller has already been advanced to its wake
// time, so an empty result there means the deadline passed (timeout).
func (s *Sim) deliver(p *simProc) (Message, bool) {
	if len(p.mailbox) > 0 && p.mailbox[0].arrival <= p.clock {
		m := p.mailbox.pop()
		p.clock += s.machine.RecvOverhead
		p.stat.MsgsReceived++
		return m.msg, true
	}
	return Message{}, false
}
