package sops

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestOptionsJSONRoundTrip(t *testing.T) {
	orig := Options{
		Counts:       []int{30, 20, 10},
		Layout:       LayoutLine,
		Separated:    true,
		Lambda:       4.5,
		Gamma:        2.25,
		DisableSwaps: true,
		Seed:         42,
		Thresholds:   &Thresholds{Alpha: 1.5, MinSegregation: 0.8},
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	// Layout travels by name, not number.
	if !strings.Contains(string(data), `"layout": "line"`) && !strings.Contains(string(data), `"layout":"line"`) {
		t.Fatalf("layout not encoded by name: %s", data)
	}
	var got Options
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	re, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(data) {
		t.Fatalf("round trip changed the document:\n  %s\n  %s", data, re)
	}
	if got.Layout != LayoutLine || got.Lambda != 4.5 || !got.DisableSwaps || got.Thresholds == nil {
		t.Fatalf("round trip lost fields: %+v", got)
	}
}

func TestOptionsJSONDefaultsOmitted(t *testing.T) {
	data, err := json.Marshal(Options{Counts: []int{10}, Lambda: 2, Gamma: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"layout", "separated", "disableSwaps", "seed", "thresholds"} {
		if strings.Contains(string(data), absent) {
			t.Errorf("default %s not omitted: %s", absent, data)
		}
	}
}

func TestOptionsJSONStrict(t *testing.T) {
	var o Options
	err := json.Unmarshal([]byte(`{"counts": [4], "lambda": 2, "gamma": 2, "lamda": 3}`), &o)
	if err == nil || !strings.Contains(err.Error(), "lamda") {
		t.Fatalf("typo field not rejected: %v", err)
	}
	if err := json.Unmarshal([]byte(`{"counts": [4], "layout": "ring"}`), &o); err == nil {
		t.Fatal("unknown layout name not rejected")
	}
}

func TestSweepSpecJSONRoundTrip(t *testing.T) {
	orig := SweepSpec{
		Lambdas:   []float64{2, 4, 6},
		Gammas:    []float64{1, 3},
		Seeds:     []uint64{7, 8},
		Counts:    []int{50, 50},
		Layout:    LayoutSpiral,
		Steps:     100_000,
		Workers:   3,
		Retries:   2,
		Backoff:   250 * time.Millisecond,
		Separated: true,
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var got SweepSpec
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Backoff != 250*time.Millisecond {
		t.Fatalf("Backoff = %v, want 250ms", got.Backoff)
	}
	if got.Layout != LayoutSpiral || got.Steps != 100_000 || got.Retries != 2 || len(got.Lambdas) != 3 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round-tripped spec does not validate: %v", err)
	}
	re, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(data) {
		t.Fatalf("round trip changed the document:\n  %s\n  %s", data, re)
	}
}

// TestSweepSpecJSONRuntimeFieldsExcluded pins the contract that callbacks
// and checkpoint wiring are not part of the wire form: they never appear in
// the encoding, and decoding leaves them zero for the executor to supply.
func TestSweepSpecJSONRuntimeFieldsExcluded(t *testing.T) {
	spec := SweepSpec{
		Lambdas:        []float64{2},
		Gammas:         []float64{2},
		Counts:         []int{10},
		Steps:          100,
		Observe:        func(done, total int) {},
		CheckpointPath: "/tmp/should-not-travel",
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("spec with callbacks must still marshal: %v", err)
	}
	if strings.Contains(string(data), "should-not-travel") || strings.Contains(strings.ToLower(string(data)), "checkpoint") {
		t.Fatalf("runtime fields leaked into the wire form: %s", data)
	}
	var got SweepSpec
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Observe != nil || got.CheckpointPath != "" {
		t.Fatalf("runtime fields not zero after decode: %+v", got)
	}
}

func TestSweepSpecJSONStrict(t *testing.T) {
	var spec SweepSpec
	err := json.Unmarshal([]byte(`{"lambdas": [2], "gammas": [2], "counts": [4], "steps": 10, "checkpointPath": "x"}`), &spec)
	if err == nil || !strings.Contains(err.Error(), "checkpointPath") {
		t.Fatalf("runtime field in wire document not rejected: %v", err)
	}
}

func TestLayoutTextCodec(t *testing.T) {
	for _, tc := range []struct {
		l    Layout
		name string
	}{
		{LayoutSpiral, "spiral"},
		{LayoutLine, "line"},
	} {
		b, err := tc.l.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != tc.name {
			t.Fatalf("MarshalText(%v) = %q, want %q", tc.l, b, tc.name)
		}
		var back Layout
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != tc.l {
			t.Fatalf("UnmarshalText(%q) = %v, want %v", b, back, tc.l)
		}
	}
	var l Layout
	if err := l.UnmarshalText([]byte("")); err != nil || l != 0 {
		t.Fatalf("empty layout = %v, %v; want the zero value (spiral default)", l, err)
	}
	if err := l.UnmarshalText([]byte("ring")); err == nil {
		t.Fatal("unknown layout name accepted")
	}
}
