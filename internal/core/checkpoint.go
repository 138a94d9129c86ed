// Checkpointing: periodic, deterministic snapshots of the whole search
// state, taken at iteration barriers, so an interrupted run can be resumed
// — bit-identically on the simulator backend — from its last checkpoint.
//
// A checkpoint is a consistent cut: every process stops at the same master
// iteration boundary (a barrier coordinated by messages for the parallel
// variants), captures its searcher state plus its runtime-level state
// (virtual clock, speed skew, jitter stream), and the assembled Checkpoint
// is handed to Config.CheckpointSink. Resuming through ResumeContext
// restores every process from its part and continues the run; because the
// barrier is part of the checkpointing mode's trajectory (its messages
// consume virtual time), the resumed run replays the exact event order of
// the uninterrupted run with the same CheckpointEvery.
//
// Solutions are serialized routes-only: every per-route metric cache is a
// raw RouteMetrics output and objectives are summed in route order, so
// re-evaluating the routes on restore reproduces the objectives bit for
// bit. The one exception is the asynchronous master's pending candidate
// set, whose objectives were delta-evaluated — those are stored verbatim.
package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/deme"
	"repro/internal/operators"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/tabu"
	"repro/internal/vrptw"
)

// CheckpointVersion is the format version written into every encoded
// checkpoint. Decoding rejects any other version.
const CheckpointVersion = 1

// Checkpoint is a complete, resumable snapshot of a TSMO run at one
// iteration barrier. Parts is indexed by process ID.
type Checkpoint struct {
	Barrier    int    `json:"barrier"`
	Algorithm  string `json:"algorithm"`
	Processors int    `json:"processors"`
	Seed       uint64 `json:"seed"`
	Every      int    `json:"every"`
	// InstanceDigest and ConfigDigest fingerprint the instance and the
	// search-shaping configuration; ResumeContext refuses to resume
	// against a different instance or config.
	InstanceDigest string `json:"instance_digest"`
	ConfigDigest   string `json:"config_digest"`
	// GranularK and EvalWorkers are the human-readable half of the config
	// fingerprint: recorded so a mismatch surfaces as a clear spec-level
	// error rather than an opaque digest failure. GranularK shapes the
	// trajectory and must match on resume; EvalWorkers only shards the
	// delta evaluation (bit-identical to serial), so it may change across
	// a resume and is recorded for the status/journal note only.
	GranularK   int `json:"granular_k,omitempty"`
	EvalWorkers int `json:"eval_workers,omitempty"`
	// WaitTimeout, RecvTimeout and EvictAfter are the materialized
	// coordination parameters the run derived at its start (validate
	// scales the timeouts by instance size when they are unset). They are
	// part of the config fingerprint, so a resume adopts them instead of
	// re-deriving: after an instance mutation the deriving instance no
	// longer exists, and a re-derivation from the mutated one would shift
	// both the digest and the trajectory.
	WaitTimeout float64          `json:"wait_timeout,omitempty"`
	RecvTimeout float64          `json:"recv_timeout,omitempty"`
	EvictAfter  int              `json:"evict_after,omitempty"`
	Parts       []*SearcherState `json:"parts"`
}

// SearcherState is one process's part of a checkpoint: the full Algorithm 1
// state for masters/searchers, or just the runtime snapshot for stateless
// workers (Worker true). Done marks a process whose body had already
// returned when the checkpoint was taken (an early-finished collaborative
// searcher); its part is its final state.
type SearcherState struct {
	ID      int  `json:"id"`
	Barrier int  `json:"barrier"`
	Done    bool `json:"done,omitempty"`
	Worker  bool `json:"worker,omitempty"`

	Iter          int  `json:"iter"`
	Evals         int  `json:"evals"`
	SinceImprove  int  `json:"since_improve"`
	NoImprovement bool `json:"no_improvement,omitempty"`

	// Per-searcher parameters (perturbed on collaborative processes > 0;
	// restored instead of re-perturbing, which would consume RNG draws).
	Neighborhood int `json:"neighborhood,omitempty"`
	Tenure       int `json:"tenure,omitempty"`
	RestartIters int `json:"restart_iters,omitempty"`

	RNG rng.State `json:"rng"`

	// Solutions are stored routes-only; objectives are re-derived on
	// restore (bit-identical, see the package comment). Order matters
	// and round-trips: archive eviction and restart draws index the
	// stored slices directly.
	Cur     [][]int             `json:"cur,omitempty"`
	Tabu    []uint64            `json:"tabu,omitempty"`
	Nondom  [][][]int           `json:"nondom,omitempty"`
	Archive [][][]int           `json:"archive,omitempty"`
	HVRef   solution.Objectives `json:"hv_ref"`

	LastSample int             `json:"last_sample,omitempty"`
	Samples    []QualitySample `json:"samples,omitempty"`

	// Asynchronous master: candidates received but not yet consumed by a
	// step. Their delta-evaluated objectives are stored verbatim.
	Pending []PendingCand `json:"pending,omitempty"`

	// Collaborative / asynchronous sharing state.
	CommList     []int `json:"comm_list,omitempty"`
	InitialPhase bool  `json:"initial_phase,omitempty"`
	Shares       int   `json:"shares,omitempty"`

	// Cluster-exchange state (Config.Share; primary searcher only): the
	// batch accumulating toward the next share epoch, the full publish
	// history (so a migrated job's new node can replay past epochs to
	// reconnecting siblings), and the cross-node share count.
	ShareOut  [][][]int    `json:"share_out,omitempty"`
	ShareSent []ShareBatch `json:"share_sent,omitempty"`
	XShares   int          `json:"xshares,omitempty"`

	// Runtime-level snapshot (simulator backend only; zero Speed on the
	// goroutine backend means "nothing captured").
	Proc deme.ProcSnapshot `json:"proc"`
}

// PendingCand is a serialized pending candidate of the asynchronous
// master. Obj keeps the delta-evaluated objectives the selection logic
// saw, which may differ in the last ulp from a from-scratch re-evaluation.
// Op is the Name() of the operator that proposed the move (its funnel
// telemetry key).
type PendingCand struct {
	Routes [][]int             `json:"routes"`
	Obj    solution.Objectives `json:"obj"`
	Attr   uint64              `json:"attr"`
	Op     string              `json:"op"`
	Born   int                 `json:"born"`
}

// ckptMsg is the payload of the checkpoint-barrier messages. halt is set
// on a collaborative tagCkptGo when the barrier is a mutation epoch: the
// peer exits its body right after capturing, instead of resuming the
// search. The flag never changes message cost, so a halting barrier
// consumes exactly the virtual time of a plain one.
type ckptMsg struct {
	barrier int
	halt    bool
}

// checkpointEnvelope is the outer wire form: the payload is kept as raw
// bytes so the checksum verifies over exactly what was written.
type checkpointEnvelope struct {
	Version  int             `json:"version"`
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// EncodeCheckpoint serializes a checkpoint into its versioned,
// sha256-checksummed JSON envelope.
func EncodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	payload, err := json.Marshal(ck)
	if err != nil {
		return nil, fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	sum := sha256.Sum256(payload)
	return json.Marshal(checkpointEnvelope{
		Version:  CheckpointVersion,
		Checksum: hex.EncodeToString(sum[:]),
		Payload:  payload,
	})
}

// DecodeCheckpoint parses and verifies an encoded checkpoint: envelope
// shape, format version, payload checksum, and structural invariants
// (algorithm name, processor/part counts, part IDs).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint envelope: %w", err)
	}
	if env.Version != CheckpointVersion {
		return nil, fmt.Errorf("core: unsupported checkpoint version %d (want %d)", env.Version, CheckpointVersion)
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.Checksum {
		return nil, fmt.Errorf("core: checkpoint checksum mismatch")
	}
	var ck Checkpoint
	if err := json.Unmarshal(env.Payload, &ck); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint payload: %w", err)
	}
	if _, err := ParseAlgorithm(ck.Algorithm); err != nil {
		return nil, err
	}
	if ck.Every < 1 || ck.Barrier < 1 {
		return nil, fmt.Errorf("core: checkpoint has invalid barrier %d / interval %d", ck.Barrier, ck.Every)
	}
	if ck.Processors < 1 || len(ck.Parts) != ck.Processors {
		return nil, fmt.Errorf("core: checkpoint has %d parts for %d processors", len(ck.Parts), ck.Processors)
	}
	for i, part := range ck.Parts {
		if part == nil {
			return nil, fmt.Errorf("core: checkpoint part %d is missing", i)
		}
		if part.ID != i {
			return nil, fmt.Errorf("core: checkpoint part %d carries ID %d", i, part.ID)
		}
	}
	return &ck, nil
}

// matches verifies a checkpoint against the run it is about to resume.
func (ck *Checkpoint) matches(alg Algorithm, cfg *Config) error {
	if ck.Algorithm != alg.String() {
		return fmt.Errorf("core: checkpoint is for algorithm %q, resuming %q", ck.Algorithm, alg)
	}
	if ck.Processors != cfg.Processors {
		return fmt.Errorf("core: checkpoint is for %d processors, resuming with %d", ck.Processors, cfg.Processors)
	}
	if ck.Seed != cfg.Seed {
		return fmt.Errorf("core: checkpoint seed %d does not match config seed %d", ck.Seed, cfg.Seed)
	}
	if ck.Every != cfg.CheckpointEvery {
		return fmt.Errorf("core: checkpoint interval %d does not match CheckpointEvery %d", ck.Every, cfg.CheckpointEvery)
	}
	if ck.InstanceDigest != cfg.instDigest {
		return fmt.Errorf("core: checkpoint instance digest mismatch (checkpoint %s, run %s)", ck.InstanceDigest, cfg.instDigest)
	}
	if ck.GranularK != cfg.GranularK {
		// Checked before the opaque digest so the most common spec drift —
		// resuming or mutating a run with a different neighborhood shape —
		// names the field instead of failing as a generic checksum error.
		return fmt.Errorf("core: checkpoint was cut with granular_k=%d but this run has granular_k=%d; the neighborhood shape is part of the search trajectory and must match", ck.GranularK, cfg.GranularK)
	}
	if ck.ConfigDigest != cfg.cfgDigest {
		return fmt.Errorf("core: checkpoint config digest mismatch (checkpoint %s, run %s)", ck.ConfigDigest, cfg.cfgDigest)
	}
	return nil
}

// instanceDigest fingerprints the problem data: fleet, capacity and every
// site field, hashed over their exact float64 bit patterns.
func instanceDigest(in *vrptw.Instance) string {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	h.Write([]byte(in.Name))
	h.Write([]byte{0})
	w64(uint64(len(in.Sites)))
	w64(uint64(in.Vehicles))
	wf(in.Capacity)
	for _, s := range in.Sites {
		wf(s.X)
		wf(s.Y)
		wf(s.Demand)
		wf(s.Ready)
		wf(s.Due)
		wf(s.Service)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// configFingerprint lists every Config field that shapes the search
// trajectory. Observability and service-level knobs are deliberately
// excluded: attaching telemetry to a resumed run is fine.
type configFingerprint struct {
	Algorithm         string    `json:"algorithm"`
	MaxEvaluations    int       `json:"max_evaluations"`
	NeighborhoodSize  int       `json:"neighborhood_size"`
	TabuTenure        int       `json:"tabu_tenure"`
	ArchiveSize       int       `json:"archive_size"`
	NondomSize        int       `json:"nondom_size"`
	RestartIterations int       `json:"restart_iterations"`
	Processors        int       `json:"processors"`
	Islands           int       `json:"islands"`
	Seed              uint64    `json:"seed"`
	CheckpointEvery   int       `json:"checkpoint_every"`
	WaitTimeout       float64   `json:"wait_timeout"`
	RecvTimeout       float64   `json:"recv_timeout"`
	EvictAfter        int       `json:"evict_after"`
	Cost              CostModel `json:"cost"`
	ShareBroadcast    bool      `json:"share_broadcast"`
	DisableAspiration bool      `json:"disable_aspiration"`
	SampleEvery       int       `json:"sample_every"`
	Operators         []string  `json:"operators"`
	// GranularK shapes the proposal distribution and therefore the
	// trajectory; omitempty keeps digests of non-granular configs — and
	// so all pre-granular checkpoints — unchanged. EvalWorkers is
	// deliberately absent: the parallel evaluator is bit-identical to
	// the serial path.
	GranularK int `json:"granular_k,omitempty"`
	// ShareEvery gates the cluster-exchange epochs, which inject foreign
	// solutions into M_nondom; omitempty keeps every non-cluster digest —
	// and so all pre-cluster checkpoints — unchanged. validate() zeroes it
	// whenever Config.Share is nil.
	ShareEvery int `json:"share_every,omitempty"`
}

// configDigest fingerprints the validated, search-shaping part of the
// configuration. Call after validate() so derived defaults are filled.
func configDigest(c *Config, alg Algorithm) string {
	fp := configFingerprint{
		Algorithm:         alg.String(),
		MaxEvaluations:    c.MaxEvaluations,
		NeighborhoodSize:  c.NeighborhoodSize,
		TabuTenure:        c.TabuTenure,
		ArchiveSize:       c.ArchiveSize,
		NondomSize:        c.NondomSize,
		RestartIterations: c.RestartIterations,
		Processors:        c.Processors,
		Islands:           c.Islands,
		Seed:              c.Seed,
		CheckpointEvery:   c.CheckpointEvery,
		WaitTimeout:       c.WaitTimeout,
		RecvTimeout:       c.RecvTimeout,
		EvictAfter:        c.EvictAfter,
		Cost:              c.Cost,
		ShareBroadcast:    c.ShareBroadcast,
		DisableAspiration: c.DisableAspiration,
		SampleEvery:       c.SampleEvery,
		GranularK:         c.GranularK,
		ShareEvery:        c.ShareEvery,
	}
	for _, op := range c.Operators {
		fp.Operators = append(fp.Operators, op.Name())
	}
	data, err := json.Marshal(fp)
	if err != nil {
		panic(err) // static struct of scalars; cannot fail
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// ckptCollector gathers per-process parts between barriers. On the
// goroutine backend processes write concurrently; on the simulator the
// mutex is uncontended. The barrier protocols guarantee every live
// process's put happens before the assembling process's assemble.
type ckptCollector struct {
	mu    sync.Mutex
	parts []*SearcherState
}

func newCkptCollector(n int) *ckptCollector {
	return &ckptCollector{parts: make([]*SearcherState, n)}
}

func (c *ckptCollector) put(id int, st *SearcherState) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.parts[id] = st
	c.mu.Unlock()
}

// assemble returns a copy of the part list if it is complete for the given
// barrier — every part present and either final (Done) or captured at this
// barrier — and nil otherwise (a dead worker, say, leaves a stale slot).
func (c *ckptCollector) assemble(barrier int) []*SearcherState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*SearcherState, len(c.parts))
	for i, p := range c.parts {
		if p == nil || (!p.Done && p.Barrier != barrier) {
			return nil
		}
		out[i] = p
	}
	return out
}

// checkpointing reports whether this run takes checkpoints.
func (c *Config) checkpointing() bool { return c.CheckpointEvery > 0 }

// checkpointDue reports whether the master iteration count sits on a
// checkpoint barrier. Checked after a step, so a run resumed from barrier
// k never re-fires barrier k.
func (c *Config) checkpointDue(iter int) bool {
	return c.CheckpointEvery > 0 && iter > 0 && iter%c.CheckpointEvery == 0
}

// resumePart returns the checkpoint part for process id, or nil when this
// run is not a resume.
func (c *Config) resumePart(id int) *SearcherState {
	if c.resume == nil {
		return nil
	}
	return c.resume.Parts[id]
}

// emitCheckpoint assembles the collected parts for the barrier and hands
// the checkpoint to the sink. An incomplete assembly (dead process without
// a final part) skips the barrier; a sink error is counted and the run
// continues — durability degrades, the search does not.
func (c *Config) emitCheckpoint(barrier int) {
	cs := c.Telemetry.CheckpointGroup()
	parts := c.coll.assemble(barrier)
	if parts == nil {
		cs.Skip()
		return
	}
	cs.Snapshot()
	if c.CheckpointSink == nil {
		return
	}
	ck := &Checkpoint{
		Barrier:        barrier,
		Algorithm:      c.alg.String(),
		Processors:     c.Processors,
		Seed:           c.Seed,
		Every:          c.CheckpointEvery,
		InstanceDigest: c.instDigest,
		ConfigDigest:   c.cfgDigest,
		GranularK:      c.GranularK,
		EvalWorkers:    c.EvalWorkers,
		WaitTimeout:    c.WaitTimeout,
		RecvTimeout:    c.RecvTimeout,
		EvictAfter:     c.EvictAfter,
		Parts:          parts,
	}
	if err := c.CheckpointSink(ck); err != nil {
		cs.SinkError()
	}
}

// capture snapshots the searcher (and, on the simulator, its process) into
// a checkpoint part. It only reads state — apart from caching pending
// materializations, nothing observable changes.
func (s *searcher) capture(p deme.Proc, barrier int, done bool) *SearcherState {
	st := &SearcherState{
		ID:            p.ID(),
		Barrier:       barrier,
		Done:          done,
		Iter:          s.iter,
		Evals:         s.evals,
		SinceImprove:  s.sinceImprove,
		NoImprovement: s.noImprovement,
		Neighborhood:  s.neighborhood,
		Tenure:        s.tl.Tenure(),
		RestartIters:  s.restartIters,
		RNG:           s.r.State(),
		Cur:           s.cur.Routes,
		Nondom:        routesOfAll(s.nondom.Items()),
		Archive:       routesOfAll(s.archive.Items()),
		HVRef:         s.hvRef,
		LastSample:    s.lastSample,
		Samples:       append([]QualitySample(nil), s.samples...),
	}
	q := s.tl.Queue()
	st.Tabu = make([]uint64, len(q))
	for i, a := range q {
		st.Tabu[i] = uint64(a)
	}
	if sn, ok := p.(deme.Snapshotter); ok {
		st.Proc = sn.Snapshot()
	}
	if s.shareOn {
		st.ShareOut = append([][][]int(nil), s.shareOut...)
		st.ShareSent = s.cfg.Share.History()
		st.XShares = s.xshares
	}
	return st
}

// restoreFrom rebuilds the searcher from a checkpoint part. The caller has
// already constructed the searcher with the part's parameters; this
// replaces current solution, memories, RNG and counters. It substitutes
// for init(), which must not have run.
func (s *searcher) restoreFrom(st *SearcherState) {
	s.iter = st.Iter
	s.evals = st.Evals
	s.sinceImprove = st.SinceImprove
	s.noImprovement = st.NoImprovement
	s.r.SetState(st.RNG)
	s.cur = solution.New(s.in, st.Cur)
	attrs := make([]tabu.Attribute, len(st.Tabu))
	for i, a := range st.Tabu {
		attrs[i] = tabu.Attribute(a)
	}
	s.tl.Restore(attrs)
	s.nondom.Restore(solutionsFromRoutes(s.in, st.Nondom))
	s.archive.Restore(solutionsFromRoutes(s.in, st.Archive))
	s.hvRef = st.HVRef
	s.lastSample = st.LastSample
	s.samples = append(s.samples[:0], st.Samples...)
	if s.shareOn {
		s.shareOut = append([][][]int(nil), st.ShareOut...)
		s.xshares = st.XShares
		s.cfg.Share.Prime(st.ShareSent)
	}
	s.cfg.Telemetry.CheckpointGroup().Resumed()
}

// routesOfAll snapshots the route lists of a solution slice. Inner route
// slices are shared — they are immutable by the solution contract.
func routesOfAll(items []*solution.Solution) [][][]int {
	out := make([][][]int, len(items))
	for i, s := range items {
		out[i] = s.Routes
	}
	return out
}

// solutionsFromRoutes re-evaluates serialized route lists back into
// solutions, preserving order.
func solutionsFromRoutes(in *vrptw.Instance, routes [][][]int) []*solution.Solution {
	out := make([]*solution.Solution, len(routes))
	for i, r := range routes {
		out[i] = solution.New(in, r)
	}
	return out
}

// capturePending serializes the asynchronous master's pending candidates,
// materializing each one (value-identical to the lazy materialization a
// later step would perform).
func capturePending(in *vrptw.Instance, gen *operators.Generator, pending []cand) []PendingCand {
	out := make([]PendingCand, len(pending))
	for i := range pending {
		sol := pending[i].materialize(in)
		out[i] = PendingCand{
			Routes: sol.Routes,
			Obj:    pending[i].obj,
			Attr:   uint64(pending[i].attr),
			Op:     gen.KindName(pending[i].data.Kind),
			Born:   pending[i].born,
		}
	}
	return out
}

// restorePending rebuilds pending candidates as pre-materialized cands
// carrying their original delta-evaluated objectives. Each keeps only the
// kind of its move, recovered from the operator name, so the funnel still
// counts it when selected; an unknown name restores as KindNone (counted
// nowhere).
func restorePending(in *vrptw.Instance, gen *operators.Generator, ps []PendingCand) []cand {
	out := make([]cand, len(ps))
	for i, pc := range ps {
		sol := solution.New(in, pc.Routes)
		out[i] = cand{
			data: operators.MoveData{Kind: kindNamed(gen, pc.Op)},
			base: sol,
			obj:  pc.Obj,
			sol:  sol,
			attr: tabu.Attribute(pc.Attr),
			born: pc.Born,
		}
	}
	return out
}

// kindNamed is the inverse of Generator.KindName.
func kindNamed(gen *operators.Generator, name string) operators.MoveKind {
	if name == "" {
		return operators.KindNone
	}
	for k := operators.KindNone + 1; int(k) < operators.NumKinds; k++ {
		if gen.KindName(k) == name {
			return k
		}
	}
	return operators.KindNone
}

// chunkSeed derives the RNG seed of one asynchronous work chunk from the
// worker's base seed and the master iteration it was dispatched at
// (splitmix64's golden-ratio increment keys the mix). A worker never
// receives two chunks for the same master iteration and per-worker base
// seeds differ, so chunk streams never collide.
func chunkSeed(seed uint64, iter int) uint64 {
	return seed + 0x9e3779b97f4a7c15*uint64(iter+1)
}

// ckptWorkers runs the master–worker barrier: send tagCkpt to every alive
// worker, await their acks (each worker deposits its runtime part into the
// collector before acking). Stray late results arriving during the barrier
// are dropped exactly as the main loops would drop them. Returns false —
// skipping the barrier, never the run — when a worker stays silent past
// EvictAfter receive timeouts.
func ckptWorkers(p deme.Proc, cfg *Config, workers []int, barrier int) bool {
	cs := cfg.Telemetry.CheckpointGroup()
	start := p.Now()
	defer func() { cs.Barrier(p.Now() - start) }()
	awaiting := make(map[int]bool, len(workers))
	for _, w := range workers {
		if p.Alive(w) {
			p.Send(w, tagCkpt, ckptMsg{barrier: barrier}, 0)
			awaiting[w] = true
		}
	}
	misses := 0
	for len(awaiting) > 0 {
		m, ok := p.RecvTimeout(cfg.RecvTimeout)
		if !ok {
			before := len(awaiting)
			for w := range awaiting {
				if !p.Alive(w) {
					delete(awaiting, w)
				}
			}
			if len(awaiting) == before {
				misses++
				if misses >= cfg.EvictAfter {
					return false
				}
			}
			continue
		}
		if m.Tag == tagCkptAck {
			delete(awaiting, m.From)
		}
		// Anything else here is a stale late reply; both masters have
		// already accounted for (sync) or quiesced (async) their workers.
	}
	return true
}

// collabBarrier is the collaborative variant's two-phase checkpoint
// barrier, run by process 0. Phase one: request every alive peer to pause;
// a peer acks and then blocks (folding shares, sending nothing) until
// released. Shares arriving during this phase were sent before their
// sender saw the request — with constant message latency they arrive
// before any release — so folding them immediately keeps them on the
// pre-capture side of the cut at both ends. Phase two: release all paused
// peers; each captures its part and acks again. Messages arriving now were
// sent after their sender's capture, so they are deferred and folded only
// after the coordinator's own capture — a resumed run re-sends and
// re-folds them identically. The coordinator captures after the final ack,
// so its snapshot clock covers the whole barrier, and the acks give the
// part deposits a happens-before edge to the assembly on both backends.
//
// halt marks the barrier as a mutation epoch: peers that capture are also
// told (via the halt flag on tagCkptGo) to exit their bodies. The flag is
// only raised when phase one completed — a peer must never halt while the
// coordinator abandons the barrier and searches on. It returns whether
// the barrier completed with every part deposited (false: skipped).
func collabBarrier(p deme.Proc, cfg *Config, barrier int, halt bool, fold func(deme.Message) error, capture func()) (bool, error) {
	cs := cfg.Telemetry.CheckpointGroup()
	start := p.Now()
	defer func() { cs.Barrier(p.Now() - start) }()

	awaiting := make(map[int]bool, p.P()-1)
	for id := 1; id < p.P(); id++ {
		if p.Alive(id) {
			p.Send(id, tagCkptReq, ckptMsg{barrier: barrier}, 0)
			awaiting[id] = true
		}
	}

	var deferred []deme.Message
	wait := func(aw map[int]bool, acked *[]int, stash bool) (bool, error) {
		misses := 0
		for len(aw) > 0 {
			m, ok := p.RecvTimeout(cfg.RecvTimeout)
			if !ok {
				before := len(aw)
				for id := range aw {
					if !p.Alive(id) {
						delete(aw, id) // finished peers leave a final part
					}
				}
				if len(aw) == before {
					misses++
					if misses >= cfg.EvictAfter {
						return false, nil // persistently silent peer
					}
				}
				continue
			}
			if m.Tag == tagCkptAck {
				if aw[m.From] {
					delete(aw, m.From)
					if acked != nil {
						*acked = append(*acked, m.From)
					}
				}
				continue
			}
			if stash {
				deferred = append(deferred, m)
				continue
			}
			if err := fold(m); err != nil {
				return false, err
			}
		}
		return true, nil
	}

	var acked []int
	ok, err := wait(awaiting, &acked, false)
	// Release every paused peer whether or not the barrier completes:
	// they capture on the go message and resume searching; stray second
	// acks of an abandoned barrier are ignored by the main fold loops.
	// The halt flag rides only a completed phase one — an abandoned
	// barrier must not strand halted peers behind a searching coordinator.
	for _, id := range acked {
		p.Send(id, tagCkptGo, ckptMsg{barrier: barrier, halt: halt && ok}, 0)
	}
	if err != nil {
		return false, err
	}
	if !ok {
		cs.Skip()
		return false, nil
	}
	aw2 := make(map[int]bool, len(acked))
	for _, id := range acked {
		aw2[id] = true
	}
	ok, err = wait(aw2, nil, true)
	if err != nil {
		return false, err
	}
	if ok {
		capture()
		// A halt barrier's checkpoint never reaches the sink unpatched:
		// the mutation source's Apply produces the only persisted form of
		// this barrier, so on disk a mutation epoch's checkpoint is always
		// the post-splice one and recovery can fold exactly the mutations
		// at or below the persisted barrier.
		if !halt {
			cfg.emitCheckpoint(barrier)
		}
	} else {
		cs.Skip()
		if halt {
			// Peers already halted on the go message; a coordinator that
			// searched on would leave them stranded. Surface the fault.
			return false, fmt.Errorf("core: mutation barrier %d lost a peer after the halt was released", barrier)
		}
	}
	for _, m := range deferred {
		if err := fold(m); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// ResumeContext resumes a checkpointed run: the algorithm, processor
// count, seed and checkpoint interval are taken from the checkpoint (and
// verified against the instance and the rest of the configuration through
// the stored digests), every process restores its part, and the run
// continues to its configured budget. On the simulator backend the result
// is bit-identical to the uninterrupted run.
func ResumeContext(ctx context.Context, ck *Checkpoint, in *vrptw.Instance, cfg Config, rt deme.Runtime) (*Result, error) {
	if ck == nil {
		return nil, fmt.Errorf("core: nil checkpoint")
	}
	alg, err := ParseAlgorithm(ck.Algorithm)
	if err != nil {
		return nil, err
	}
	cfg.Seed = ck.Seed
	cfg.Processors = ck.Processors
	cfg.CheckpointEvery = ck.Every
	// Adopt the materialized coordination parameters of the run that cut
	// the checkpoint: re-deriving them from the (possibly mutated)
	// instance would shift the config digest and the trajectory. An
	// explicit caller override still wins — the digest check reports it.
	if cfg.WaitTimeout == 0 {
		cfg.WaitTimeout = ck.WaitTimeout
	}
	if cfg.RecvTimeout == 0 {
		cfg.RecvTimeout = ck.RecvTimeout
	}
	if cfg.EvictAfter == 0 {
		cfg.EvictAfter = ck.EvictAfter
	}
	cfg.resume = ck
	return RunContext(ctx, alg, in, cfg, rt)
}
