package core

import (
	"repro/internal/deme"
	"repro/internal/operators"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

// workerLoop services work requests from a master until it receives a stop
// message, the system drains, or the master dies. Two request shapes are
// served: the asynchronous master sends a count and the worker proposes
// and delta-evaluates its own neighbors (sending full candidates back);
// the synchronous master ships the move span it proposed itself and the
// worker only delta-evaluates it (sending an index-aligned objectives
// span back). Received solutions are immutable and every worker builds its
// own schedule cache, so nothing mutable crosses the goroutine boundary.
//
// Receives are bounded by Config.RecvTimeout so an orphaned worker — its
// master crashed before sending tagStop — notices via Proc.Alive and exits
// instead of blocking forever.
//
// Under checkpointing the worker re-seeds its RNG per asynchronous chunk
// from (seed, master iteration), so it carries no RNG state across chunks:
// a checkpoint needs only the worker's runtime snapshot, and a resumed
// worker reproduces every chunk's candidate stream exactly. tagCkpt asks
// the worker to deposit that snapshot into the run's collector and ack.
func workerLoop(p deme.Proc, in *vrptw.Instance, cfg *Config, r *rng.Rand, seed uint64, master int) {
	gen := operators.NewGenerator(in, cfg.Operators)
	gen.DeltaStats = cfg.Telemetry.DeltaGroup()
	gen.SpliceStats = cfg.Telemetry.SpliceGroup()
	gen.SetOps(cfg.Telemetry.Operators())
	if cfg.GranularK > 0 {
		gen.Granular = in.NeighborLists(cfg.GranularK)
	}
	var buf operators.CandidateBuffer
	ws := cfg.Telemetry.WorkerGroup()
	fg := cfg.Telemetry.FaultGroup()
	for {
		if cfg.cancelled() {
			return // the run was cancelled; the master is unwinding too
		}
		idleStart := p.Now()
		m, ok := p.RecvTimeout(cfg.RecvTimeout)
		if !ok {
			if !p.Alive(master) {
				return // orphaned: the master is gone, no stop will come
			}
			continue // plain timeout (or drained system with a live master)
		}
		if m.Tag == tagStop {
			return
		}
		if m.Tag == tagCkpt {
			cm, okPayload := m.Data.(ckptMsg)
			if !okPayload {
				fg.Malformed()
				continue
			}
			part := &SearcherState{ID: p.ID(), Barrier: cm.barrier, Worker: true}
			if sn, isSim := p.(deme.Snapshotter); isSim {
				// Simulator: ack first so the captured clock includes the
				// send overhead (a resumed worker does not re-ack); the
				// deposit is still visible before this process next yields.
				p.Send(m.From, tagCkptAck, ckptMsg{barrier: cm.barrier}, 0)
				part.Proc = sn.Snapshot()
				cfg.coll.put(p.ID(), part)
			} else {
				// Real concurrency: deposit before acking so the master's
				// assembly, which follows the ack, observes the part.
				cfg.coll.put(p.ID(), part)
				p.Send(m.From, tagCkptAck, ckptMsg{barrier: cm.barrier}, 0)
			}
			continue
		}
		if m.Tag != tagWork {
			continue // stray share/result messages are not for workers
		}
		busyStart := p.Now()
		w, okPayload := m.Data.(workMsg)
		if !okPayload {
			fg.Malformed()
			continue // the master guards its own payloads; drop garbage here
		}
		if w.data != nil {
			// Synchronous span: evaluate exactly the shipped moves. The
			// reply's objectives slice is freshly allocated — it crosses
			// the goroutine boundary.
			sp := cfg.tracer.Start(cfg.span, "eval_shard").
				SetInt("proc", int64(p.ID())).
				SetInt("moves", int64(len(w.data)))
			objs := make([]solution.Objectives, len(w.data))
			gen.EvalDataInto(w.cur, w.data, objs)
			var cost float64
			for i := range objs {
				cost += cfg.Cost.evalCost(in, int(objs[i].Vehicles))
			}
			p.Compute(cost)
			p.Send(master, tagResult, resultMsg{objs: objs, lo: w.lo, iter: w.iter}, len(objs)*solBytes(in))
			ws.Chunk(len(objs), busyStart-idleStart, p.Now()-busyStart)
			sp.End()
			continue
		}
		if cfg.checkpointing() {
			r.Seed(chunkSeed(seed, w.iter))
		}
		sp := cfg.tracer.Start(cfg.span, "eval_shard").
			SetInt("proc", int64(p.ID())).
			SetInt("moves", int64(w.count))
		gen.CandidatesInto(&buf, w.cur, r, w.count)
		cands := make([]cand, len(buf.Data))
		var cost float64
		for i := range buf.Data {
			d := buf.Data[i]
			cands[i] = cand{
				data: d,
				base: w.cur,
				obj:  buf.Objs[i],
				attr: d.Attribute(),
				born: w.iter,
			}
			cost += cfg.Cost.evalCost(in, int(buf.Objs[i].Vehicles))
		}
		if cfg.Telemetry.Enabled() {
			for i := range cands {
				gen.KindStats(cands[i].data.Kind).Propose()
			}
		}
		p.Compute(cost)
		p.Send(master, tagResult, resultMsg{cands: cands}, len(cands)*solBytes(in))
		ws.Chunk(len(cands), busyStart-idleStart, p.Now()-busyStart)
		sp.End()
	}
}
