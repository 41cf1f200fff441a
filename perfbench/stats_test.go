package main

import (
	"encoding/json"
	"os"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the functions must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 50, 0, false}, // rank 10, 9 beyond
		{20, 50, 10, true}, // rank 10, 10 beyond
		{99, 90, 0, false}, // rank 90, 9 beyond
		{100, 90, 90, true},
		{101, 90, 91, true}, // rank ceil(90.9) = 91, 10 beyond
		{1000, 99, 990, true},
		{0, 50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		if !ok || got != c.want {
			t.Errorf("quartiles(%v) = %v, %v; want %v", c.xs, got, ok, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
}

func TestSelfTimeFromSpanTree(t *testing.T) {
	// root [0,100) has children [10,30) and [20,50) (overlapping: 40
	// covered) and [90,120) (spills past the root: 10 covered); child
	// [20,50) has a grandchild [25,35).
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "a", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 35},
		{ID: 6, Parent: 1, Name: "open", Start: 60, End: -1},
	}
	got := make(map[string]selfStat)
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	want := map[string]selfStat{
		"root": {Name: "root", Calls: 1, Total: 100, Self: 50},
		"a":    {Name: "a", Calls: 2, Total: 50, Self: 50},
		"b":    {Name: "b", Calls: 1, Total: 30, Self: 20},
		"c":    {Name: "c", Calls: 1, Total: 10, Self: 10},
	}
	if len(got) != len(want) {
		t.Fatalf("selfTimes names = %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("selfTimes[%s] = %+v, want %+v", name, got[name], w)
		}
	}
}

func TestTracerPerItem(t *testing.T) {
	tr := newTracer()
	tr.add("x", 0, 0, tr.t0, tr.t0.Add(300), 3)
	tr.add("x", 0, 0, tr.t0.Add(300), tr.t0.Add(400), 1)
	if v, ok := tr.perItem("x"); !ok || v != 100 {
		t.Errorf("perItem = %g, %v; want 100", v, ok)
	}
	if v, ok := tr.meanDur("x"); !ok || v != 200 {
		t.Errorf("meanDur = %g, %v; want 200", v, ok)
	}
	if _, ok := tr.perItem("missing"); ok {
		t.Error("perItem of no spans reported ok")
	}
	var none *tracer
	if id := none.begin("x", 0, 0); id != 0 {
		t.Errorf("nil tracer begin = %d", id)
	}
	none.end(0, 1)
}

// TestMetricListsMatchBenchmarkJSON keeps the metric lists in this package
// and the repository's BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	compare("end_to_end", endToEnd, bench.EndToEnd)
	compare("per_layer", perLayer, bench.PerLayer)
	for _, w := range bench.Workload {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one of the benchmark's", w.Name)
		}
	}
	if len(bench.Workload) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(bench.Workload), len(workloads))
	}
}
