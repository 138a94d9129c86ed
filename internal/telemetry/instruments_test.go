package telemetry

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

var instrumentTypes = map[reflect.Type]bool{
	reflect.TypeOf(Counter{}):      true,
	reflect.TypeOf(FloatCounter{}): true,
	reflect.TypeOf(Histogram{}):    true,
}

// instrumentFields maps the address of every Counter, FloatCounter and
// Histogram reachable through v's exported fields (arrays included) to
// its Go field path.
func instrumentFields(v reflect.Value, path string, out map[any]string) {
	if instrumentTypes[v.Type()] {
		out[v.Addr().Interface()] = path
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				instrumentFields(v.Field(i), path+"."+f.Name, out)
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			instrumentFields(v.Index(i), fmt.Sprintf("%s[%d]", path, i), out)
		}
	}
}

// TestInstrumentTableComplete walks every instrument field of the
// Telemetry groups and of the per-operator and per-peer stats, and checks
// that each appears in exactly one table row, that no row points
// elsewhere, and that Snapshot() paths, Prometheus family names and
// (family, label value) series are unique. A counter added to a group
// but not to the table, or named twice, fails here.
func TestInstrumentTableComplete(t *testing.T) {
	tel := New(nil, nil)
	op := &OpStats{}
	peer := &PeerShareStats{}
	fields := map[any]string{}
	instrumentFields(reflect.ValueOf(tel).Elem(), "Telemetry", fields)
	instrumentFields(reflect.ValueOf(op).Elem(), "OpStats", fields)
	instrumentFields(reflect.ValueOf(peer).Elem(), "PeerShareStats", fields)

	rows := map[any]int{}
	paths := map[string]bool{}
	families := map[string]bool{}
	addFamily := func(name string) {
		if name == "" {
			return
		}
		if families[name] {
			t.Errorf("Prometheus family %s declared twice", name)
		}
		families[name] = true
	}
	for _, f := range tel.families() {
		addFamily(f.name)
		pairs := map[string]bool{}
		if _, ok := f.series[0].inst.(*Histogram); ok {
			if len(f.series) != 1 || f.label != "" || (f.name != "" && (f.help == "" || f.scale == 0)) {
				t.Errorf("histogram family %q must be one unlabelled series with help and scale", f.name)
			}
		}
		for _, s := range f.series {
			rows[s.inst]++
			if paths[s.path] {
				t.Errorf("Snapshot path %s used twice", s.path)
			}
			paths[s.path] = true
			if top, _, _ := strings.Cut(s.path, "."); top == "operators" || top == "peer_shares" || !strings.Contains(s.path, ".") {
				t.Errorf("Snapshot path %s must sit in a group of its own", s.path)
			}
			if _, isHist := s.inst.(*Histogram); f.name == "" && !isHist {
				t.Errorf("counter %s has no Prometheus family", s.path)
			}
			if (f.label == "") != (s.value == "") {
				t.Errorf("%s{%s=%q}: label key and value must be set together", f.name, f.label, s.value)
			}
			if pairs[s.value] {
				t.Errorf("series %s{%s=%q} declared twice", f.name, f.label, s.value)
			}
			pairs[s.value] = true
		}
	}
	keys := map[string]bool{}
	for _, c := range op.counters() {
		rows[c.c]++
		addFamily(c.family)
		if c.family == "" || keys[c.key] {
			t.Errorf("operator counter %q: missing family or duplicate key", c.key)
		}
		keys[c.key] = true
	}
	keys = map[string]bool{}
	for _, c := range peer.counters() {
		rows[c.c]++
		if keys[c.key] {
			t.Errorf("peer counter key %q used twice", c.key)
		}
		keys[c.key] = true
	}

	for addr, path := range fields {
		if n := rows[addr]; n != 1 {
			t.Errorf("%s appears in %d table rows, want 1", path, n)
		}
	}
	for addr := range rows {
		if _, ok := fields[addr]; !ok {
			t.Errorf("table row points at %T %p, which is no instrument field", addr, addr)
		}
	}
}
