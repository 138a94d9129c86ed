package core

import (
	"fmt"

	"repro/internal/deme"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

// asyncMaster runs the asynchronous master–worker variant (§III.D): the
// master hands chunks to idle workers, computes a chunk of its own, and
// then — instead of waiting for everyone — consults the decision function
// of Algorithm 2 to decide when to proceed with whatever part of the
// neighborhood has been evaluated so far. Late results join a later
// iteration's candidate set, so the considered set can mix neighbors of
// several past current solutions (the paper's Figure 1).
//
// Self-healing: silent workers are treated as idle rather than waited on.
// A worker that crashed (Proc.Alive false) is evicted immediately; one
// that stays busy past Config.RecvTimeout collects a strike per dispatch
// and is evicted after Config.EvictAfter strikes. Evictions rebalance the
// chunk size over the remaining workers, and an evicted worker that later
// delivers a result is re-admitted. With every worker gone the master
// degrades to a sequential searcher that no longer waits at all.
//
// When peers is non-empty the master additionally behaves like a
// collaborative searcher toward those processes (the paper's future-work
// combination): improving solutions are sent to one peer chosen by a
// rotating communication list, and solutions received from peers are merged
// into M_nondom.
func asyncMaster(p deme.Proc, in *vrptw.Instance, cfg *Config, r *rng.Rand, workers, peers []int, rec *Trajectory) procOutcome {
	s := newSearcher(in, cfg, r, 0, 0, 0)
	s.rec = rec
	s.sampleOn = rec != nil || len(peers) == 0 || p.ID() == 0
	s.shareOn = cfg.Share != nil && p.ID() == 0
	rp := cfg.resumePart(p.ID())
	if rp != nil {
		s.restoreFrom(rp)
	} else {
		s.init(p)
	}
	fg := cfg.Telemetry.FaultGroup()

	initial := append([]int(nil), workers...)
	workers = append([]int(nil), workers...)
	chunk := s.neighborhood / (len(workers) + 1)
	if chunk < 1 {
		chunk = 1
	}
	rebalance := func() {
		chunk = s.neighborhood / (len(workers) + 1)
		if chunk < 1 {
			chunk = 1
		}
	}
	idle := make([]bool, p.P())
	sentAt := make([]float64, p.P())
	struck := make([]bool, p.P()) // this dispatch already collected its strike
	strikes := make([]int, p.P())
	for _, w := range workers {
		idle[w] = true
	}
	inSet := func(w int) bool {
		for _, v := range workers {
			if v == w {
				return true
			}
		}
		return false
	}
	wasInitial := func(w int) bool {
		for _, v := range initial {
			if v == w {
				return true
			}
		}
		return false
	}
	// reap drops dead workers immediately and strikes (and eventually
	// evicts) busy ones whose reply is overdue, so the decision function
	// never keeps waiting on a silent worker.
	reap := func() {
		changed := false
		kept := workers[:0]
		for _, w := range workers {
			if !p.Alive(w) {
				fg.Evicted()
				idle[w] = false
				changed = true
				continue
			}
			if !idle[w] && p.Now()-sentAt[w] > cfg.RecvTimeout {
				if !struck[w] {
					struck[w] = true
					strikes[w]++
					fg.RecvTimeout()
				}
				if strikes[w] >= cfg.EvictAfter {
					fg.Evicted()
					idle[w] = false
					changed = true
					continue
				}
			}
			kept = append(kept, w)
		}
		workers = kept
		if changed {
			rebalance()
		}
	}

	commList := append([]int(nil), peers...)
	initialPhase := true
	shares := 0

	var pending []cand
	var protoErr error

	if rp != nil {
		// The checkpoint was taken at a quiesced barrier: every worker
		// idle, no results in flight — exactly the state the arrays above
		// initialize to. Pending candidates and sharing state come from
		// the checkpoint; the commList shuffle must not re-consume RNG.
		pending = restorePending(in, s.gen, rp.Pending)
		commList = append(commList[:0], rp.CommList...)
		initialPhase = rp.InitialPhase
		shares = rp.Shares
	} else {
		r.Shuffle(len(commList), func(i, j int) { commList[i], commList[j] = commList[j], commList[i] })
	}

	as := cfg.Telemetry.AsyncGroup()
	sh := cfg.Telemetry.ShareGroup()

	// handle folds one message into the master state.
	handle := func(m deme.Message) error {
		switch m.Tag {
		case tagResult:
			rm, ok := m.Data.(resultMsg)
			if !ok {
				fg.Malformed()
				return fmt.Errorf("worker %d sent a malformed result payload %T", m.From, m.Data)
			}
			pending = append(pending, rm.cands...)
			s.evals += len(rm.cands)
			s.ts.Evals(len(rm.cands))
			strikes[m.From], struck[m.From] = 0, false
			if inSet(m.From) {
				idle[m.From] = true
			} else if wasInitial(m.From) && p.Alive(m.From) {
				// An evicted worker came back (e.g. its stall ended):
				// re-admit it.
				fg.Revived()
				workers = append(workers, m.From)
				idle[m.From] = true
				rebalance()
			}
		case tagShare:
			sol, ok := m.Data.(*solution.Solution)
			if !ok {
				fg.Malformed()
				return fmt.Errorf("peer %d sent a malformed share payload %T", m.From, m.Data)
			}
			p.Compute(shareHandlingFactor * cfg.Cost.OverheadPerNeighbor)
			sh.Received(s.nondom.Add(sol))
		}
		return nil
	}

	for !s.done(p) && protoErr == nil {
		reap()
		if len(workers) < len(initial) {
			fg.DegradedIteration()
		}
		// Dispatch new work to every idle worker.
		for _, w := range workers {
			if idle[w] {
				p.Send(w, tagWork, workMsg{cur: s.cur, count: chunk, iter: s.iter}, solBytes(in))
				idle[w] = false
				sentAt[w] = p.Now()
				struck[w] = false
			}
		}
		// The master's own share of the neighborhood.
		own := s.generate(p, chunk)
		if len(own) == 0 {
			s.evals++
		}
		pending = append(pending, own...)

		// Decision function (Algorithm 2): stop waiting when a worker
		// is idle (c1), a collected candidate dominates the current
		// solution (c2), we waited too long (c3), or the evaluation
		// budget is exhausted (c4). The conditions are (re)evaluated
		// once per poll cycle — the master first collects everything
		// arriving within one quantum, mirroring the framework's
		// periodic message polling; this is what lets the bunched
		// worker replies of one round join the same iteration instead
		// of straggling into the next. A master with no workers left
		// skips the wait entirely (c1: everyone is trivially idle).
		waitStart := p.Now()
		deadline := waitStart + cfg.WaitTimeout
		poll := cfg.WaitTimeout / 3
		collectQuantum := func() {
			tick := p.Now() + poll
			for p.Now() < tick && protoErr == nil {
				m, ok := p.RecvTimeout(tick - p.Now())
				if !ok {
					return
				}
				protoErr = handle(m)
			}
		}
		fired := telemetry.FireTimeout // c3 unless another condition breaks first
		if len(workers) > 0 {
			collectQuantum()
		}
		for protoErr == nil {
			for {
				m, ok := p.TryRecv()
				if !ok {
					break
				}
				if protoErr = handle(m); protoErr != nil {
					break
				}
			}
			if protoErr != nil {
				break
			}
			reap()
			c1 := len(workers) == 0 // nothing left to wait on
			for _, w := range workers {
				if idle[w] {
					c1 = true
					break
				}
			}
			c2 := false
			for i := range pending {
				if pending[i].obj.Dominates(s.cur.Obj) {
					c2 = true
					break
				}
			}
			c4 := s.done(p)
			if c1 || c2 || c4 {
				switch {
				case c1:
					fired = telemetry.FireIdleWorker
				case c2:
					fired = telemetry.FireDominating
				default:
					fired = telemetry.FireBudget
				}
				break
			}
			if deadline-p.Now() <= 0 {
				break // c3: waited too long
			}
			collectQuantum()
		}
		if protoErr != nil {
			break
		}
		as.Fire(fired)
		if as != nil {
			late := 0
			for i := range pending {
				if pending[i].born < s.iter {
					late++
				}
			}
			as.Step(len(pending), late, p.Now()-waitStart)
			// Sinks (not Enabled) keeps instruments-only runs
			// allocation-free on this per-iteration path.
			if s.tel.Sinks() {
				s.tel.Event("decision", map[string]any{
					"proc":         p.ID(),
					"iteration":    s.iter,
					"reason":       fired.String(),
					"pending":      len(pending),
					"late":         late,
					"wait_seconds": p.Now() - waitStart,
				})
			}
		}

		improved := s.step(p, pending)
		pending = pending[:0]

		if initialPhase && s.noImprovement {
			initialPhase = false
		}
		if len(commList) > 0 && !initialPhase && improved {
			sp := s.tr.Start(s.phase, "share").SetInt("proc", int64(p.ID()))
			dropDeadPeers(p, &commList, fg)
			if len(commList) > 0 {
				shares += sendShare(p, in, cfg, s.cur, &commList)
			}
			sp.End()
		}

		if cfg.shareDue(s.iter) && s.shareOn && !s.done(p) {
			// Late worker results queue (in virtual time) while the gather
			// blocks in wall time, so the exchange never perturbs the
			// decision function's trajectory.
			s.exchange(p)
		}

		if cfg.checkpointDue(s.iter) && !s.done(p) && protoErr == nil {
			ckptSpan := s.tr.Start(s.phase, "ckpt_barrier").
				SetInt("proc", int64(p.ID())).
				SetInt("barrier", int64(s.iter/cfg.CheckpointEvery))
			// Checkpoint barrier. First quiesce: wait for every remaining
			// worker to go idle, folding stragglers' results into pending
			// — they join the next iteration's candidate set, exactly as
			// in the uninterrupted checkpointing trajectory. Then run the
			// capture/ack round against a system with nothing in flight.
			quiesced := true
			misses := 0
			for protoErr == nil {
				reap()
				busy := false
				for _, w := range workers {
					if !idle[w] {
						busy = true
						break
					}
				}
				if !busy {
					break
				}
				m, ok := p.RecvTimeout(cfg.RecvTimeout)
				if !ok {
					misses++
					if misses >= cfg.EvictAfter {
						quiesced = false // persistently silent worker
						break
					}
					continue
				}
				protoErr = handle(m)
			}
			if protoErr != nil {
				ckptSpan.End()
				break
			}
			b := s.iter / cfg.CheckpointEvery
			if quiesced && ckptWorkers(p, cfg, workers, b) {
				st := s.capture(p, b, false)
				st.Pending = capturePending(in, s.gen, pending)
				st.CommList = append([]int(nil), commList...)
				st.InitialPhase = initialPhase
				st.Shares = shares
				cfg.coll.put(p.ID(), st)
				if cfg.haltDue(b) {
					// Mutation epoch: exit the segment on the quiesced
					// barrier's parts. The captured pending candidates
					// reference the pre-mutation instance; the mutation
					// source drops them during repair (counted as the
					// restart's lost iterations). The sink emit is skipped —
					// the halt barrier's checkpoint only ever persists in
					// its patched form.
					cfg.markHalt(b)
					ckptSpan.End()
					break
				}
				cfg.emitCheckpoint(b)
			} else {
				cfg.Telemetry.CheckpointGroup().Skip()
			}
			ckptSpan.End()
		}
	}
	for _, w := range initial {
		p.Send(w, tagStop, nil, 0)
	}
	if protoErr != nil {
		return s.failOutcome(protoErr)
	}
	return s.outcome(shares + s.xshares)
}

// dropDeadPeers removes peers whose process is gone — crashed or already
// finished — from a share ring, so searchers stop addressing the dead.
func dropDeadPeers(p deme.Proc, commList *[]int, fg *telemetry.FaultStats) {
	kept := (*commList)[:0]
	for _, peer := range *commList {
		if p.Alive(peer) {
			kept = append(kept, peer)
		} else {
			fg.PeerDrop()
		}
	}
	*commList = kept
}
