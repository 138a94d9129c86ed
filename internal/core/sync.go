package core

import (
	"fmt"

	"repro/internal/deme"
	"repro/internal/operators"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

// span is one outstanding work chunk: the index range [lo, hi) of the
// iteration's move list dispatched to worker w. Kept in a slice (not a
// map) so the recovery path iterates in a deterministic order.
type span struct{ w, lo, hi int }

// syncMaster runs the synchronous master–worker variant (§III.C): each
// iteration the master proposes the whole neighborhood from its own random
// stream — so the search trajectory is exactly the sequential one — ships
// index-aligned move spans to the workers for delta evaluation, evaluates
// its own span, and reassembles the objectives before selecting.
//
// The master self-heals: every receive carries Config.RecvTimeout, an
// expired deadline re-evaluates the outstanding spans locally (the result
// is bit-identical to the lost reply, so faults never change the
// trajectory), persistently silent workers are evicted after
// Config.EvictAfter strikes, crashed workers immediately, and with no
// workers left the master degrades to the plain sequential searcher.
func syncMaster(p deme.Proc, in *vrptw.Instance, cfg *Config, r *rng.Rand, rec *Trajectory) procOutcome {
	s := newSearcher(in, cfg, r, 0, 0, 0)
	s.rec = rec
	s.sampleOn = true
	s.shareOn = cfg.Share != nil && p.ID() == 0
	if st := cfg.resumePart(p.ID()); st != nil {
		s.restoreFrom(st)
	} else {
		s.init(p)
	}
	fg := cfg.Telemetry.FaultGroup()

	alive := procRange(1, p.P())
	strikes := make([]int, p.P())
	evict := func(w int) {
		for i, a := range alive {
			if a == w {
				alive = append(alive[:i], alive[i+1:]...)
				fg.Evicted()
				return
			}
		}
	}

	var objs []solution.Objectives
	var outstanding []span
	for !s.done(p) {
		// Reap workers that crashed or exited since the last iteration.
		kept := alive[:0]
		for _, w := range alive {
			if p.Alive(w) {
				kept = append(kept, w)
			} else {
				fg.Evicted()
			}
		}
		alive = kept
		if len(alive) < p.P()-1 {
			fg.DegradedIteration()
		}

		s.gen.MovesInto(&s.buf, s.cur, s.r, s.neighborhood)
		data := s.buf.Data
		n := len(data)
		if s.tel.Enabled() {
			for i := range data {
				s.gen.KindStats(data[i].Kind).Propose()
			}
		}
		if cap(objs) < n {
			objs = make([]solution.Objectives, n)
		}
		objs = objs[:n]

		// Even spans per worker; the master absorbs the remainder (all of
		// it once every worker is gone — the sequential degradation).
		// Dispatched spans are copied out of the reusable buffer: a
		// stalled worker may still be reading its span when the master has
		// recovered it locally, moved on, and overwritten the buffer.
		per := n / (len(alive) + 1)
		outstanding = outstanding[:0]
		lo := 0
		if per > 0 {
			for _, w := range alive {
				hi := lo + per
				sendSpan := append([]operators.MoveData(nil), data[lo:hi]...)
				p.Send(w, tagWork, workMsg{cur: s.cur, data: sendSpan, lo: lo, iter: s.iter}, solBytes(in))
				outstanding = append(outstanding, span{w: w, lo: lo, hi: hi})
				lo = hi
			}
		}
		s.evalDataSpan(p, data[lo:], objs[lo:])

		for len(outstanding) > 0 {
			m, ok := p.RecvTimeout(cfg.RecvTimeout)
			if !ok {
				// Deadline expired (or the system drained): strike every
				// outstanding worker and recover its span locally.
				fg.RecvTimeout()
				for _, sp := range outstanding {
					strikes[sp.w]++
					fg.Redispatch()
					s.evalDataSpan(p, data[sp.lo:sp.hi], objs[sp.lo:sp.hi])
					if strikes[sp.w] >= cfg.EvictAfter || !p.Alive(sp.w) {
						evict(sp.w)
					}
				}
				outstanding = outstanding[:0]
				break
			}
			if m.Tag != tagResult {
				continue // stray share traffic is not for a sync master
			}
			rm, okPayload := m.Data.(resultMsg)
			if !okPayload {
				fg.Malformed()
				stopWorkers(p)
				return s.failOutcome(fmt.Errorf("worker %d sent a malformed result payload %T", m.From, m.Data))
			}
			idx := -1
			for i, sp := range outstanding {
				if sp.w == m.From && sp.lo == rm.lo && rm.iter == s.iter {
					idx = i
					break
				}
			}
			if idx < 0 {
				// A duplicate, or a late reply to a chunk already
				// recovered locally or belonging to a past iteration.
				fg.Stale()
				continue
			}
			sp := outstanding[idx]
			if len(rm.objs) != sp.hi-sp.lo {
				fg.Malformed()
				stopWorkers(p)
				return s.failOutcome(fmt.Errorf("worker %d returned %d objectives for a %d-move span",
					m.From, len(rm.objs), sp.hi-sp.lo))
			}
			copy(objs[sp.lo:sp.hi], rm.objs)
			strikes[sp.w] = 0
			outstanding = append(outstanding[:idx], outstanding[idx+1:]...)
		}

		s.evals += n
		s.ts.Evals(n)
		if n == 0 {
			// Degenerate instance with no feasible moves: charge the
			// failed attempt so the budget still runs out (as sequential).
			s.evals++
		}
		if cap(s.cands) < n {
			s.cands = make([]cand, n)
		}
		cands := s.cands[:n]
		for i := range data {
			d := data[i]
			cands[i] = cand{
				data: d,
				base: s.cur,
				obj:  objs[i],
				attr: d.Attribute(),
				born: s.iter,
			}
		}
		s.step(p, cands)
		if cfg.shareDue(s.iter) && s.shareOn && !s.done(p) {
			// Workers are idle between iterations, so the blocking gather
			// fits here exactly like the checkpoint barrier below.
			s.exchange(p)
		}
		if cfg.checkpointDue(s.iter) && !s.done(p) {
			// Checkpoint barrier: every alive worker deposits its runtime
			// snapshot and acks; the master then captures itself and
			// assembles. Workers are idle between iterations, so the
			// barrier fits between the result collection and the next
			// dispatch.
			b := s.iter / cfg.CheckpointEvery
			sp := s.tr.Start(s.phase, "ckpt_barrier").
				SetInt("proc", int64(p.ID())).SetInt("barrier", int64(b))
			if ckptWorkers(p, cfg, alive, b) {
				cfg.coll.put(p.ID(), s.capture(p, b, false))
				if cfg.haltDue(b) {
					// Mutation epoch: exit the segment on the barrier's
					// parts. Workers idle until the loop exit's stop
					// message; a failed barrier retries the halt at the
					// next one (haltDue keeps answering true). The sink
					// emit is skipped — the halt barrier's checkpoint only
					// ever persists in its patched form.
					cfg.markHalt(b)
					sp.End()
					break
				}
				cfg.emitCheckpoint(b)
			} else {
				cfg.Telemetry.CheckpointGroup().Skip()
			}
			sp.End()
		}
	}
	stopWorkers(p)
	return s.outcome(s.xshares)
}

// stopWorkers tells every originally-assigned worker to terminate. Evicted
// or crashed workers are included: mail to a finished process is silently
// never delivered, and a stalled-but-alive one needs the stop to exit.
func stopWorkers(p deme.Proc) {
	for w := 1; w < p.P(); w++ {
		p.Send(w, tagStop, nil, 0)
	}
}
