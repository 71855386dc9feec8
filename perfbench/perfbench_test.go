package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// small returns a copy of the workload at a twentieth of its size; the
// noise rates keep each regime at that size.
func small(wl *workload) *workload {
	s := *wl
	s.tuples /= 20
	return &s
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, wl := range workloads {
		a, b := Generate(7, wl.tuples/20, wl.noise), Generate(7, wl.tuples/20, wl.noise)
		if !bytes.Equal(a.CSV(), b.CSV()) {
			t.Fatalf("%s: seed 7 gave two different CSVs", wl.name)
		}
		ea := NewChecker(wl.cfds, a.Rows, 0).Expect(false)
		eb := NewChecker(wl.cfds, b.Rows, 0).Expect(false)
		if ea.Dirty() != eb.Dirty() || ea.Violations != eb.Violations || ea.Groups != eb.Groups {
			t.Fatalf("%s: seed 7 gave dirty counts %d and %d", wl.name, ea.Dirty(), eb.Dirty())
		}
		if bytes.Equal(a.CSV(), Generate(8, wl.tuples/20, wl.noise).CSV()) {
			t.Fatalf("%s: seeds 7 and 8 gave the same CSV", wl.name)
		}
	}
}

// TestCheckerRejectsAlteredCount takes a real detect response and changes
// one number in it at a time.
func TestCheckerRejectsAlteredCount(t *testing.T) {
	wl := small(workloads[0])
	ds := Generate(3, wl.tuples, wl.noise)
	b := newBench(wl, ds, 3)
	ctx := context.Background()
	if _, err := b.setup(ctx, ds.CSV()); err != nil {
		t.Fatal(err)
	}
	defer b.in.stop()
	r := b.in.call(ctx, "POST", "/api/detect/"+table, nil, false)
	if r.err != nil || r.status != 200 {
		t.Fatalf("detect: %v %d", r.err, r.status)
	}
	want := b.chk.Expect(true)
	if err := b.checkDetect(r.body, want); err != nil {
		t.Fatalf("checker rejects the server's answer: %v", err)
	}
	alter := []func(m map[string]any){
		func(m map[string]any) { m["violations"] = m["violations"].(float64) + 1 },
		func(m map[string]any) { m["dirty"] = m["dirty"].(float64) - 1 },
		func(m map[string]any) { m["version"] = m["version"].(float64) + 1 },
		func(m map[string]any) {
			for id, v := range m["vio"].(map[string]any) {
				m["vio"].(map[string]any)[id] = v.(float64) + 1
				return
			}
		},
		func(m map[string]any) {
			st := m["perCFD"].(map[string]any)["phi1"].(map[string]any)
			st["groups"] = st["groups"].(float64) + 1
		},
	}
	for i, f := range alter {
		var m map[string]any
		if err := json.Unmarshal(r.body, &m); err != nil {
			t.Fatal(err)
		}
		f(m)
		if err := b.checkDetect(mustJSON(m), want); err == nil {
			t.Errorf("alteration %d passed the checker", i)
		}
	}
	// A stream missing one violation, or with a miscounted done line.
	r = b.in.call(ctx, "GET", "/api/detect/"+table+"?stream=1", nil, true)
	if err := b.checkStream(r.lines, true, want); err != nil {
		t.Fatalf("checker rejects the server's stream: %v", err)
	}
	if err := b.checkStream(r.lines[1:], true, want); err == nil {
		t.Error("a stream missing its first line passed the checker")
	}
	if err := b.checkStream(r.lines[:len(r.lines)-1], true, want); err == nil {
		t.Error("a stream without its done line passed the checker")
	}
}

// benchmarkJSON reads the names BENCHMARK.json lists, by section, and the
// unit of each metric.
func benchmarkJSON(t *testing.T) (names map[string][]string, units map[string]string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names, units = map[string][]string{}, map[string]string{}
	for _, w := range spec.Workloads {
		names["workloads"] = append(names["workloads"], w.Name)
	}
	for _, m := range spec.EndToEnd {
		names["end_to_end"] = append(names["end_to_end"], m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		names["per_layer"] = append(names["per_layer"], m.Name)
		units[m.Name] = m.Unit
	}
	return names, units
}

// TestShortRuns runs each workload briefly at a twentieth of its size,
// untraced and traced, and wants every metric BENCHMARK.json names with
// nothing failed.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	names, units := benchmarkJSON(t)
	if got, want := strings.Join(names["workloads"], ","), workloadNames(); got != strings.ReplaceAll(want, ", ", ",") {
		t.Fatalf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	if strings.Join(names["per_layer"], ",") != strings.Join(perLayer, ",") {
		t.Fatalf("BENCHMARK.json per_layer differs from the program's list")
	}
	ctx := context.Background()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			run, list := runPlain, names["end_to_end"]
			if traced {
				run, list = runTraced, names["per_layer"]
			}
			res, err := run(ctx, small(wl), 5, time.Second)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.tried == 0 {
				t.Fatalf("%s traced=%v: correct=%v, %d of %d failed", wl.name, traced, res.correct, res.failed, res.tried)
			}
			got := map[string]metric{}
			for _, m := range res.metrics {
				got[m.name] = m
			}
			for _, n := range list {
				if m, ok := got[n]; !ok || !m.json {
					t.Errorf("%s traced=%v: no %s", wl.name, traced, n)
				} else if m.unit != units[n] {
					t.Errorf("%s: %s in %s, BENCHMARK.json says %s", wl.name, n, m.unit, units[n])
				}
			}
			if !traced {
				if m := got["error_ratio"]; m.value != 0 {
					t.Errorf("%s: error_ratio %g", wl.name, m.value)
				}
				for _, m := range res.metrics {
					if m.json && m.value <= 0 {
						t.Errorf("%s: %s = %g, want > 0", wl.name, m.name, m.value)
					}
				}
			}
			var n int
			for _, m := range res.metrics {
				if m.json {
					n++
				}
			}
			if n != len(list) {
				t.Errorf("%s traced=%v: %d JSON metrics, BENCHMARK.json lists %d", wl.name, traced, n, len(list))
			}
		}
	}
}
