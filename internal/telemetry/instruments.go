package telemetry

import "strings"

// The instrument table names every instrument of a Telemetry layer once,
// for both of its exports: its dotted path in the Snapshot() tree (run
// report, expvar, /telemetry, the service's /v1/telemetry) and its series
// in the Prometheus exposition (Samples, WriteProm, the service's
// /metrics). TestInstrumentTableComplete checks that every instrument
// field appears in exactly one row.

// family is one Prometheus metric family and the instruments that form
// its series. Families without a name are exported in Snapshot() only.
// help and scale apply to histogram families (counter families derive
// their help text from the name); scale converts the histogram's integer
// unit into the exposition unit.
type family struct {
	name   string
	label  string // label key of a labelled family
	series []series
	help   string
	scale  float64
}

// series is one instrument: a *Counter, *FloatCounter or *Histogram, its
// label value within the family, and its Snapshot() path.
type series struct {
	value string
	path  string
	inst  any
}

// one is the single unlabelled series of a family.
func one(path string, inst any) []series { return []series{{path: path, inst: inst}} }

// families is the instrument table of t.
func (t *Telemetry) families() []family {
	fires := make([]series, len(decisionNames))
	for i, reason := range decisionNames {
		fires[i] = series{reason, "async.decision_fires." + reason, &t.Async.Fires[i]}
	}
	return []family{
		{name: "tsmo_search_iterations_total", series: one("search.iterations", &t.Search.Iterations)},
		{name: "tsmo_search_evaluations_total", series: one("search.evaluations", &t.Search.Evaluations)},
		{name: "tsmo_search_restarts_total", label: "trigger", series: []series{
			{"no_candidate", "search.restarts_no_cand", &t.Search.RestartsNoCand},
			{"stagnation", "search.restarts_stagnation", &t.Search.RestartsStagn},
		}},
		{name: "tsmo_search_nondom_consumed_total", series: one("search.nondom_consumed", &t.Search.NondomConsumed)},
		{name: "tsmo_search_tabu_rejected_total", series: one("search.tabu_rejected", &t.Search.TabuRejected)},
		{name: "tsmo_search_aspiration_fires_total", series: one("search.aspiration_fires", &t.Search.AspirationFires)},

		{name: "tsmo_async_decision_total", label: "reason", series: fires},
		{name: "tsmo_async_late_candidates_total", series: one("async.late_candidates", &t.Async.LateCandidates)},
		{name: "tsmo_async_partial_size", series: one("async.partial_sizes", &t.Async.PartialSizes),
			help: "Candidate-set size per async master step.", scale: 1},
		{name: "tsmo_async_wait_seconds", series: one("async.wait_ns", &t.Async.WaitSeconds),
			help: "Per-iteration async master wait.", scale: 1e-9},

		{name: "tsmo_worker_chunks_total", series: one("worker.chunks", &t.Worker.Chunks)},
		{name: "tsmo_worker_candidates_total", series: one("worker.candidates", &t.Worker.Candidates)},
		{name: "tsmo_worker_idle_seconds_total", series: one("worker.idle_seconds", &t.Worker.IdleSeconds)},
		{name: "tsmo_worker_busy_seconds_total", series: one("worker.busy_seconds", &t.Worker.BusySeconds)},

		{name: "tsmo_share_sent_total", series: one("share.sent", &t.Share.Sent)},
		{name: "tsmo_share_received_total", label: "outcome", series: []series{
			{"accepted", "share.accepted", &t.Share.Accepted},
			{"rejected", "share.rejected", &t.Share.Rejected},
		}},

		{name: "tsmo_store_accepts_total", label: "memory", series: []series{
			{"archive", "archive.accepts", &t.Archive.Accepts},
			{"nondom", "nondom.accepts", &t.Nondom.Accepts},
		}},
		{name: "tsmo_store_rejects_total", label: "memory", series: []series{
			{"archive", "archive.rejects", &t.Archive.Rejects},
			{"nondom", "nondom.rejects", &t.Nondom.Rejects},
		}},
		{name: "tsmo_store_evictions_total", label: "memory", series: []series{
			{"archive", "archive.evictions", &t.Archive.Evictions},
			{"nondom", "nondom.evictions", &t.Nondom.Evictions},
		}},

		{name: "tsmo_delta_evals_total", label: "path", series: []series{
			{"fast", "delta.fast", &t.Delta.DeltaFast},
			{"apply_fallback", "delta.apply_fallback", &t.Delta.ApplyFallback},
		}},

		{name: "tsmo_splice_calls_total", series: one("splice.calls", &t.Splice.Calls)},
		{name: "tsmo_splice_exits_total", label: "kind", series: []series{
			{"prefix_fold", "splice.prefix_folds", &t.Splice.PrefixFolds},
			{"suffix_early_exit", "splice.suffix_early_exits", &t.Splice.SuffixEarlyExits},
			{"suffix_resync", "splice.suffix_resyncs", &t.Splice.SuffixResyncs},
			{"full_walk", "splice.full_walks", &t.Splice.FullWalks},
		}},

		{name: "tsmo_faults_injected_total", label: "kind", series: []series{
			{"msg_dropped", "faults.msgs_dropped", &t.Fault.MsgsDropped},
			{"msg_duplicated", "faults.msgs_duplicated", &t.Fault.MsgsDuplicated},
			{"msg_delayed", "faults.msgs_delayed", &t.Fault.MsgsDelayed},
			{"crash", "faults.crashes", &t.Fault.Crashes},
			{"stall", "faults.stalls", &t.Fault.Stalls},
		}},
		{name: "tsmo_fault_recovery_total", label: "kind", series: []series{
			{"recv_timeout", "faults.recv_timeouts", &t.Fault.RecvTimeouts},
			{"redispatch", "faults.redispatches", &t.Fault.Redispatches},
			{"stale_result", "faults.stale_results", &t.Fault.StaleResults},
			{"worker_eviction", "faults.worker_evictions", &t.Fault.WorkerEvictions},
			{"worker_revival", "faults.worker_revivals", &t.Fault.WorkerRevivals},
			{"peer_drop", "faults.peer_drops", &t.Fault.PeerDrops},
			{"degraded_iteration", "faults.degraded_iters", &t.Fault.DegradedIters},
			{"malformed_msg", "faults.malformed_msgs", &t.Fault.MalformedMsgs},
		}},

		{name: "tsmo_checkpoint_snapshots_total", series: one("checkpoint.snapshots", &t.Ckpt.Snapshots)},
		{name: "tsmo_checkpoint_sink_errors_total", series: one("checkpoint.sink_errors", &t.Ckpt.SinkErrors)},
		{name: "tsmo_checkpoint_skipped_total", series: one("checkpoint.skipped", &t.Ckpt.Skipped)},
		{name: "tsmo_checkpoint_resumes_total", series: one("checkpoint.resumes", &t.Ckpt.Resumes)},
		{name: "tsmo_checkpoint_barrier_seconds_total", series: one("checkpoint.barrier_seconds", &t.Ckpt.BarrierSecs)},

		{name: "tsmo_dynamic_mutations_total", label: "outcome", series: []series{
			{"applied", "dynamic.applied", &t.Dynamic.Applied},
			{"rejected", "dynamic.rejected", &t.Dynamic.Rejected},
		}},
		{name: "tsmo_dynamic_orphans_total", series: one("dynamic.orphans", &t.Dynamic.Orphans)},
		{name: "tsmo_dynamic_invalidated_total", series: one("dynamic.invalidated", &t.Dynamic.Invalidated)},
		{name: "tsmo_dynamic_pending_dropped_total", series: one("dynamic.pending_dropped", &t.Dynamic.PendingDropped)},
		{name: "tsmo_dynamic_warm_restarts_total", series: one("dynamic.warm_restarts", &t.Dynamic.WarmRestarts)},
		{name: "tsmo_dynamic_splice_seconds_total", series: one("dynamic.splice_seconds", &t.Dynamic.SpliceSeconds)},
		{series: one("dynamic.splice_ns", &t.Dynamic.SpliceNanos)},
	}
}

// named is one counter of a per-name table (operators, peers): its key
// under the name in Snapshot() and its Prometheus family, labelled by the
// name ("" for a counter exported in Snapshot() only).
type named struct {
	key, family string
	c           *Counter
}

// counters is the operator funnel's row of the table.
func (o *OpStats) counters() []named {
	return []named{
		{"proposed", "tsmo_operator_proposed_total", &o.Proposed},
		{"selected", "tsmo_operator_selected_total", &o.Selected},
		{"accepted", "tsmo_operator_accepted_total", &o.Accepted},
		{"exhausted", "tsmo_operator_exhausted_total", &o.Exhausted},
		{"granular_fallbacks", "tsmo_operator_fallbacks_total", &o.Fallbacks},
	}
}

// counters is the per-peer share row of the table.
func (p *PeerShareStats) counters() []named {
	return []named{
		{key: "batches", c: &p.Batches},
		{key: "solutions", c: &p.Solutions},
		{key: "malformed", c: &p.Malformed},
	}
}

// Snapshot returns every instrument's current value in a JSON-ready tree —
// the payload of the run report's "summary" event, the expvar export and
// the /telemetry endpoint. Counters read as int64, float accumulators as
// float64 and histograms as HistogramSnapshot.
func (t *Telemetry) Snapshot() map[string]any {
	if t == nil {
		return nil
	}
	out := map[string]any{"operators": t.Ops.Snapshot(), "peer_shares": t.Peers.Snapshot()}
	for _, f := range t.families() {
		for _, s := range f.series {
			m, keys := out, strings.Split(s.path, ".")
			for _, k := range keys[:len(keys)-1] {
				sub, ok := m[k].(map[string]any)
				if !ok {
					sub = map[string]any{}
					m[k] = sub
				}
				m = sub
			}
			var v any
			switch c := s.inst.(type) {
			case *Counter:
				v = c.Load()
			case *FloatCounter:
				v = c.Load()
			case *Histogram:
				v = c.Snapshot()
			}
			m[keys[len(keys)-1]] = v
		}
	}
	return out
}

// Samples flattens every counter instrument into exposition samples. All
// values are cumulative (counters), so an aggregator summing them across
// instances stays monotone as long as it retires finished instances into
// a persistent sum. Histograms are left to WriteProm. Nil-safe: a
// disabled layer yields nil.
func (t *Telemetry) Samples() []Sample {
	if t == nil {
		return nil
	}
	var out []Sample
	for _, f := range t.families() {
		for _, s := range f.series {
			var v float64
			switch c := s.inst.(type) {
			case *Counter:
				v = float64(c.Load())
			case *FloatCounter:
				v = c.Load()
			default:
				continue
			}
			out = append(out, Sample{Name: f.name, LabelKey: f.label, LabelValue: s.value, V: v})
		}
	}
	t.Ops.Range(func(name string, o *OpStats) {
		for _, c := range o.counters() {
			out = append(out, Sample{Name: c.family, LabelKey: "op", LabelValue: name, V: float64(c.c.Load())})
		}
	})
	return out
}

// Range calls f for every operator. It does nothing on a nil table.
func (t *OpTable) Range(f func(name string, o *OpStats)) {
	if t == nil {
		return
	}
	t.m.Range(func(k, v any) bool {
		f(k.(string), v.(*OpStats))
		return true
	})
}

// Rates returns the operator's selected/proposed and accepted/proposed
// ratios; ok is false before its first proposal.
func (o *OpStats) Rates() (sel, acc float64, ok bool) {
	p := o.Proposed.Load()
	if p == 0 {
		return 0, 0, false
	}
	return float64(o.Selected.Load()) / float64(p), float64(o.Accepted.Load()) / float64(p), true
}

// Snapshot returns the per-operator funnel with derived rates.
func (t *OpTable) Snapshot() map[string]map[string]any {
	if t == nil {
		return nil
	}
	out := make(map[string]map[string]any)
	t.Range(func(name string, o *OpStats) {
		e := make(map[string]any)
		for _, c := range o.counters() {
			e[c.key] = c.c.Load()
		}
		if sel, acc, ok := o.Rates(); ok {
			e["select_rate"] = sel
			e["accept_rate"] = acc
		}
		out[name] = e
	})
	return out
}

// Snapshot returns the per-peer counters.
func (t *PeerShareTable) Snapshot() map[string]map[string]int64 {
	if t == nil {
		return nil
	}
	out := make(map[string]map[string]int64)
	t.m.Range(func(k, v any) bool {
		e := make(map[string]int64)
		for _, c := range v.(*PeerShareStats).counters() {
			e[c.key] = c.c.Load()
		}
		out[k.(string)] = e
		return true
	})
	return out
}
