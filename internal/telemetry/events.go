package telemetry

// Typed search events. Each kind is one small struct whose JSON tags are
// the record's field names; the run report, the slog stream and the
// in-process hook all carry these values, and in-process consumers read
// their fields directly.

import (
	"encoding/json"
	"strconv"
	"time"
)

// Event is one typed search event; Kind is its tag in the report.
type Event interface{ Kind() string }

// RunStartEvent opens a CLI run report.
type RunStartEvent struct {
	Instance  string `json:"instance"`
	Customers int    `json:"customers"`
	Algorithm string `json:"algorithm"`
	Procs     int    `json:"procs"`
	Evals     int    `json:"evals"`
	Backend   string `json:"backend"`
	Seed      uint64 `json:"seed"`
}

// Objectives is an objective vector as three float fields; this package
// imports nothing from the solution model. Embedded in an event, its
// fields encode inline.
type Objectives struct {
	Distance  float64 `json:"distance"`
	Vehicles  float64 `json:"vehicles"`
	Tardiness float64 `json:"tardiness"`
}

// InitEvent reports a searcher's construction solution.
type InitEvent struct {
	Proc int `json:"proc"`
	Objectives
}

// AcceptEvent reports a current solution that entered the archive.
type AcceptEvent struct {
	Proc      int     `json:"proc"`
	Iteration int     `json:"iteration"`
	Time      float64 `json:"time"`
	Objectives
	Feasible    bool   `json:"feasible"`
	Operator    string `json:"operator"`
	ArchiveSize int    `json:"archive_size"`
}

// SnapshotEvent is a periodic front-quality snapshot on the sampling
// grid; HVRef is the run's fixed hypervolume reference point.
// BestDistance and BestVehicles are nil while the archive holds no
// feasible solution.
type SnapshotEvent struct {
	Proc         int        `json:"proc"`
	Evals        int        `json:"evals"`
	Iteration    int        `json:"iteration"`
	Time         float64    `json:"time"`
	ArchiveSize  int        `json:"archive_size"`
	NondomSize   int        `json:"nondom_size"`
	Hypervolume  float64    `json:"hypervolume"`
	Spacing      float64    `json:"spacing"`
	HVRef        Objectives `json:"hv_ref"`
	BestDistance *float64   `json:"best_distance,omitempty"`
	BestVehicles *float64   `json:"best_vehicles,omitempty"`
}

// RestartEvent reports a restart from the memories; Trigger is
// "no_candidate" or "stagnation".
type RestartEvent struct {
	Proc           int    `json:"proc"`
	Iteration      int    `json:"iteration"`
	Trigger        string `json:"trigger"`
	NondomConsumed int    `json:"nondom_consumed"`
	NondomSize     int    `json:"nondom_size"`
	ArchiveSize    int    `json:"archive_size"`
}

// DecisionEvent reports one firing of the asynchronous master's decision
// function (Algorithm 2): why it stopped waiting, how many candidates it
// proceeds with, how many of them are late, and how long it waited.
type DecisionEvent struct {
	Proc        int     `json:"proc"`
	Iteration   int     `json:"iteration"`
	Reason      string  `json:"reason"`
	Pending     int     `json:"pending"`
	Late        int     `json:"late"`
	WaitSeconds float64 `json:"wait_seconds"`
}

// SummaryEvent closes a CLI run report; Counters is the full instrument
// Snapshot(). It is the line the overhead and report tooling greps for.
type SummaryEvent struct {
	Instance       string         `json:"instance"`
	Algorithm      string         `json:"algorithm"`
	Procs          int            `json:"procs"`
	Evaluations    int            `json:"evaluations"`
	Iterations     int            `json:"iterations"`
	Shares         int            `json:"shares"`
	ElapsedSeconds float64        `json:"elapsed_seconds"`
	FrontSize      int            `json:"front_size"`
	Counters       map[string]any `json:"counters"`
}

func (RunStartEvent) Kind() string { return "run_start" }
func (InitEvent) Kind() string     { return "init" }
func (AcceptEvent) Kind() string   { return "archive_accept" }
func (SnapshotEvent) Kind() string { return "snapshot" }
func (RestartEvent) Kind() string  { return "restart" }
func (DecisionEvent) Kind() string { return "decision" }
func (SummaryEvent) Kind() string  { return "summary" }

// SetHook installs h as the in-process event sink. h runs on the emitting
// goroutine and must be safe for concurrent use; the solver service uses
// it to stream archive updates to HTTP subscribers as they happen. SetHook
// must be called before the instrumented run starts.
func (t *Telemetry) SetHook(h func(Event)) {
	if t == nil {
		return
	}
	t.hook = h
}

// Sinks reports whether any event sink (logger, JSONL writer, or hook) is
// attached. It is the one predicate every emitter checks before building
// an event, so an instruments-only layer neither allocates events nor
// computes their fields.
func (t *Telemetry) Sinks() bool {
	return t != nil && (t.log != nil || t.writer != nil || t.hook != nil)
}

// Emit sends ev to every attached sink: the slog stream and the JSONL
// writer share one encoding of it (a record, below), and the hook gets
// the typed value. A nil receiver or a layer without sinks drops it.
func (t *Telemetry) Emit(ev Event) {
	if !t.Sinks() {
		return
	}
	if t.log != nil || t.writer != nil {
		rec := record{ts: time.Now().UTC().Format(time.RFC3339Nano), ev: ev}
		if t.log != nil {
			t.log.Debug(ev.Kind(), "record", rec)
		}
		t.writer.Emit(rec)
	}
	if t.hook != nil {
		t.hook(ev)
	}
}

// record is an event as one report line: {"ts": ..., "event": kind,
// ...the event's fields}. It encodes as that JSON object for the JSONL
// writer and slog's JSON handler, and as the same text for slog's text
// handler.
type record struct {
	ts string
	ev Event
}

func (r record) MarshalJSON() ([]byte, error) {
	fields, err := json.Marshal(r.ev)
	if err != nil {
		return nil, err
	}
	b := append([]byte(`{"ts":`), strconv.Quote(r.ts)...)
	b = append(append(b, `,"event":`...), strconv.Quote(r.ev.Kind())...)
	if len(fields) > 2 {
		b = append(b, ',')
	}
	return append(b, fields[1:]...), nil
}

func (r record) MarshalText() ([]byte, error) { return r.MarshalJSON() }
