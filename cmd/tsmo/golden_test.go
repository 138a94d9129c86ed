package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// goldenFirstN is how many records of each event kind the report golden
// pins.
const goldenFirstN = 3

// TestTelemetryReportGolden is the characterization golden of the JSONL
// run report: for a sequential and a P=3 asynchronous sim run it pins
// the decoded fields of the first records of every event kind
// (run_start, init, archive_accept, snapshot, restart, decision and
// summary, whose counters are the full instrument snapshot), ignoring
// only the wall-clock "ts". Key names, nesting and values must survive
// any refactor of the event plumbing. Regenerate with -update.
func TestTelemetryReportGolden(t *testing.T) {
	got := map[string]any{}
	for _, tc := range []struct {
		alg   string
		procs int
	}{{"sequential", 1}, {"asynchronous", 3}} {
		o := baseOptions()
		o.algName = tc.alg
		o.procs = tc.procs
		o.n = 25
		o.evals = 1200
		o.nbh = 20
		o.restart = 8
		o.telemetryOut = filepath.Join(t.TempDir(), "run.jsonl")
		if err := run(context.Background(), o); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(o.telemetryOut)
		if err != nil {
			t.Fatal(err)
		}
		byKind := map[string][]map[string]any{}
		sc := bufio.NewScanner(bytes.NewReader(raw))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var rec map[string]any
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
			}
			delete(rec, "ts")
			kind, _ := rec["event"].(string)
			if len(byKind[kind]) < goldenFirstN {
				byKind[kind] = append(byKind[kind], rec)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		got[tc.alg] = byKind
	}
	checkGolden(t, filepath.Join("testdata", "telemetry_report.golden.json"), got)
}

// checkGolden compares v, as decoded JSON, with the golden file at path,
// rewriting the file instead under -update.
func checkGolden(t *testing.T, path string, v any) {
	t.Helper()
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var g, w any
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, w) {
		t.Errorf("output differs from %s; got:\n%s", path, b)
	}
}
