package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

// TestEventRecordShape pins how a typed event becomes a report line: "ts"
// and "event" next to the event's own fields, objectives inline except the
// nested hv_ref, and best_distance/best_vehicles present only when set. The
// slog stream carries the same record.
func TestEventRecordShape(t *testing.T) {
	var report, logs bytes.Buffer
	tel := New(NewLogger(&logs, slog.LevelDebug), NewWriter(&report))
	var hooked []Event
	tel.SetHook(func(ev Event) { hooked = append(hooked, ev) })
	best := 2.5
	tel.Emit(InitEvent{Proc: 2, Objectives: Objectives{Distance: 7, Vehicles: 3}})
	tel.Emit(SnapshotEvent{Proc: 1, HVRef: Objectives{Distance: 3}})
	tel.Emit(SnapshotEvent{BestDistance: &best, BestVehicles: &best})
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}

	var lines []map[string]any
	sc := bufio.NewScanner(&report)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if _, ok := rec["ts"].(string); !ok {
			t.Errorf("record without ts: %v", rec)
		}
		delete(rec, "ts")
		lines = append(lines, rec)
	}
	if len(lines) != 3 || len(hooked) != 3 {
		t.Fatalf("got %d report lines and %d hooked events, want 3 each", len(lines), len(hooked))
	}
	if got := lines[0]; got["event"] != "init" || got["proc"] != 2.0 || got["distance"] != 7.0 ||
		got["vehicles"] != 3.0 || got["tardiness"] != 0.0 || len(got) != 5 {
		t.Errorf("init record = %v", got)
	}
	snap := lines[1]
	if ref, ok := snap["hv_ref"].(map[string]any); !ok || ref["distance"] != 3.0 || len(ref) != 3 {
		t.Errorf("hv_ref = %v", snap["hv_ref"])
	}
	if _, ok := snap["best_distance"]; ok {
		t.Errorf("unset best_distance encoded: %v", snap)
	}
	if lines[2]["best_distance"] != 2.5 || lines[2]["best_vehicles"] != 2.5 {
		t.Errorf("set best fields lost: %v", lines[2])
	}
	if out := logs.String(); !strings.Contains(out, "msg=init") || !strings.Contains(out, `\"distance\":7`) {
		t.Errorf("slog stream lacks the init record: %q", out)
	}
}
