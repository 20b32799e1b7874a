package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// TestSmoke runs every workload end to end at tiny scale — 2K events, one
// saturation rep, one set-up, one layer pass — and checks shape only: no
// wall-clock assertion, so tier-1 stays deterministic.
func TestSmoke(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	specNames := func(ms []metricSpec) map[string]string {
		units := map[string]string{}
		for _, m := range ms {
			if !nameOK.MatchString(m.Name) {
				t.Errorf("BENCHMARK.json metric name %q is malformed", m.Name)
			}
			units[m.Name] = m.Unit
		}
		return units
	}
	wantE2E, wantLayer := specNames(spec.EndToEnd), specNames(spec.PerLayer)
	if len(wantE2E) != len(e2eMetrics) || len(wantLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, the harness emits %d+%d",
			len(wantE2E), len(wantLayer), len(e2eMetrics), len(layerMetrics))
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json has run_seconds %d, the harness defaults to %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	check := func(w workload, kind string, res result, want map[string]string) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s %s: correct=%v, %d of %d sessions failed", w.Name, kind, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s %s: %d metrics emitted, BENCHMARK.json names %d", w.Name, kind, len(res.Metrics), len(want))
		}
		for name, unit := range want {
			m, ok := res.Metrics[name]
			switch {
			case !ok:
				t.Errorf("%s %s: metric %s not emitted", w.Name, kind, name)
			case m.Unit != unit:
				t.Errorf("%s %s: %s has unit %q, BENCHMARK.json says %q", w.Name, kind, name, m.Unit, unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s %s: %s = %v", w.Name, kind, name, m.Value)
			}
		}
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q (or their reasons differ)", i, spec.Workloads[i].Name, w.Name)
		}
		o := runOpts{w: w, seed: 7, seconds: 1, events: 2000, reps: 1, setups: 1}
		res, det, err := measureE2E(o)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		check(w, "end-to-end", res, wantE2E)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
			}
		}
		if len(det.Argv) == 0 {
			t.Errorf("%s: no lmserved argv recorded", w.Name)
		}

		res, err = measureLayers(o)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		check(w, "per-layer", res, wantLayer)

		data, err := os.ReadFile(tracePath(root, w))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatalf("%s: trace does not parse: %v", w.Name, err)
		}
		if len(spans) == 0 {
			t.Fatalf("%s: empty trace", w.Name)
		}
		seen := map[string]bool{}
		for i, s := range spans {
			seen[s.Name] = true
			if s.ID != i || s.Parent >= i || s.Parent < -1 || (s.Parent == -1) != (i == 0) {
				t.Fatalf("%s: span %d (%s) has id %d and parent %d", w.Name, i, s.Name, s.ID, s.Parent)
			}
			if s.End < s.Start {
				t.Fatalf("%s: span %d (%s) ends before it starts", w.Name, i, s.Name)
			}
		}
		for _, name := range pathSpans(w) {
			if !seen[name] {
				t.Errorf("%s: no %s span, though the layer is on this workload's path", w.Name, name)
			}
		}
	}
}

// pathSpans names the spans a workload's trace must contain: one per layer
// on its path.
func pathSpans(w workload) []string {
	var names []string
	if w.Text {
		names = append(names, "temporal.unmarshal", "temporal.marshal")
	} else {
		names = append(names, "wire.decode", "wire.blocklog_append", "wire.copyout", "wire.encode")
	}
	switch {
	case w.Partitions > 1:
		names = append(names, "partition.process")
	case w.MemBudget > 0:
		names = append(names, "spill.process")
	default:
		names = append(names, "core.merge")
	}
	if w.Durable {
		names = append(names, "durable.wal_append", "durable.checkpoint", "durable.load")
	}
	return names
}

// TestSeedDeterminesInputs: the same seed gives byte-identical publisher
// inputs in both protocols; another seed gives different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := makeInputs(w, 500, 11), makeInputs(w, 500, 11), makeInputs(w, 500, 12)
		for p := 0; p < publishers; p++ {
			ea, err := encodeStream(a.streams[p], w.Text)
			if err != nil {
				t.Fatal(err)
			}
			eb, _ := encodeStream(b.streams[p], w.Text)
			ec, _ := encodeStream(c.streams[p], w.Text)
			if !bytes.Equal(ea, eb) {
				t.Errorf("%s publisher %d: same seed, different bytes", w.Name, p)
			}
			if bytes.Equal(ea, ec) {
				t.Errorf("%s publisher %d: different seeds, same bytes", w.Name, p)
			}
		}
		e0, _ := encodeStream(a.streams[0], w.Text)
		e1, _ := encodeStream(a.streams[1], w.Text)
		if bytes.Equal(e0, e1) {
			t.Errorf("%s: the two renderings are not physically divergent", w.Name)
		}
		if !a.tdb.Equal(b.tdb) {
			t.Errorf("%s: same seed, different script TDB", w.Name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// which the acceptance driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v, %v; Python gives 1, 3", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	mk := func(better string, vals ...float64) *e2eSummary {
		s := &e2eSummary{Better: better, Bound: 0.1, Values: vals}
		s.summarise()
		return s
	}
	cases := []struct {
		a, b *e2eSummary
		want string
	}{
		{mk("higher", 100, 101, 99), mk("higher", 80, 81, 79), "worse"},
		{mk("higher", 100, 101, 99), mk("higher", 120, 121, 119), "better"},
		{mk("lower", 100, 101, 99), mk("lower", 120, 121, 119), "worse"},
		{mk("lower", 100, 101, 99), mk("lower", 105, 104, 106), "same"},
		{mk("lower", 100, 150, 50), mk("lower", 300, 301, 299), "unresolved"},
	}
	for i, c := range cases {
		if got := verdict(c.a, c.b); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}
