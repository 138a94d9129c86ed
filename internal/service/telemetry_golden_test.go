package service

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// TestTelemetryCharacterizationGolden pins what a job's consumers see of
// the solver telemetry, for one sequential and one P=3 asynchronous sim
// job: the decoded fields of the first solver events of each kind on the
// job's event stream, the job's flight-recorder samples, the full key
// tree of its instrument Snapshot() and the sorted (name, label) series
// set of its Prometheus Samples(). Regenerate with -update.
func TestTelemetryCharacterizationGolden(t *testing.T) {
	svc := testService(t, Config{Workers: 1})
	got := map[string]any{}
	for _, tc := range []struct {
		alg   string
		procs int
	}{{"sequential", 1}, {"asynchronous", 3}} {
		spec := smallSpec()
		spec.Instance.N = 25
		spec.Algorithm = tc.alg
		spec.Processors = tc.procs
		spec.MaxEvaluations = 1200
		spec.Neighborhood = 20
		spec.RestartIters = 8
		spec.SampleEvery = 200
		j, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateDone)

		evs, _, _, _ := j.eventsSince(0)
		events := map[string][]any{}
		for _, e := range evs {
			switch e.Name {
			case "init", "archive_accept", "snapshot", "restart", "decision":
				if len(events[e.Name]) < 3 {
					events[e.Name] = append(events[e.Name], e.Fields)
				}
			}
		}
		samples, _ := j.fr.Snapshot()

		snap, err := json.Marshal(j.tel.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var tree map[string]any
		if err := json.Unmarshal(snap, &tree); err != nil {
			t.Fatal(err)
		}
		var keys []string
		keyPaths("", tree, &keys)
		sort.Strings(keys)

		var series []string
		for _, s := range j.tel.Samples() {
			series = append(series, s.Name+" "+s.LabelKey+"="+s.LabelValue)
		}
		sort.Strings(series)

		got[tc.alg] = map[string]any{
			"events":        events,
			"flight":        samples,
			"snapshot_keys": keys,
			"series":        series,
		}
	}
	checkGolden(t, filepath.Join("testdata", "telemetry.golden.json"), got)
}

// keyPaths appends the dotted path of every leaf of a decoded JSON object
// (empty objects count as leaves, marked "{}").
func keyPaths(prefix string, m map[string]any, out *[]string) {
	if len(m) == 0 {
		*out = append(*out, prefix+"{}")
		return
	}
	for k, v := range m {
		p := k
		if prefix != "" {
			p = prefix + "." + k
		}
		if sub, ok := v.(map[string]any); ok {
			keyPaths(p, sub, out)
			continue
		}
		*out = append(*out, p)
	}
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
