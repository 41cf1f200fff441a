package sops

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
)

// TestModelsDiscovery pins the public model-discovery surface the CLI and
// daemon clients build on.
func TestModelsDiscovery(t *testing.T) {
	models := Models()
	byName := map[string]ModelInfo{}
	for _, m := range models {
		byName[m.Name] = m
	}
	sep, ok := byName["separation"]
	if !ok {
		t.Fatal("separation model not discoverable")
	}
	if len(sep.Couplings) != 2 || sep.Couplings[0].Name != "lambda" || sep.Couplings[1].Name != "gamma" {
		t.Fatalf("separation couplings %+v", sep.Couplings)
	}
	al, ok := byName["alignment"]
	if !ok {
		t.Fatal("alignment model not discoverable")
	}
	if len(al.Observables) == 0 {
		t.Fatal("alignment exports no observables")
	}
	an, ok := byName["anneal"]
	if !ok {
		t.Fatal("anneal model not discoverable")
	}
	hasInteger := false
	for _, c := range an.Couplings {
		hasInteger = hasInteger || c.Integer
	}
	if !hasInteger {
		t.Fatalf("anneal declares no integer couplings: %+v", an.Couplings)
	}
}

// TestOptionsModelValidation covers the new failure modes of the options
// surface: unknown models and couplings are rejected with named errors,
// while the legacy separation errors keep their identities.
func TestOptionsModelValidation(t *testing.T) {
	base := Options{Counts: []int{5, 5}, Lambda: 4, Gamma: 4}

	opts := base
	opts.Model = "no-such-model"
	if err := opts.Validate(); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: %v", err)
	}

	opts = base
	opts.Model = "alignment"
	opts.Couplings = map[string]float64{"delta": 2}
	if err := opts.Validate(); !errors.Is(err, ErrBadCoupling) {
		t.Fatalf("unknown coupling name: %v", err)
	}

	opts = base
	opts.Model = "alignment"
	opts.Couplings = map[string]float64{"alpha": -1}
	if err := opts.Validate(); !errors.Is(err, ErrBadCoupling) {
		t.Fatalf("bad coupling value: %v", err)
	}

	opts = base
	opts.Model = "anneal"
	opts.Gamma = 16
	opts.Couplings = map[string]float64{"stages": 2.5}
	if err := opts.Validate(); !errors.Is(err, ErrBadCoupling) {
		t.Fatalf("non-integral stages: %v", err)
	}

	// Legacy separation errors keep their names with the model field unset.
	opts = base
	opts.Lambda = 0
	if err := opts.Validate(); !errors.Is(err, ErrBadLambda) {
		t.Fatalf("legacy lambda error lost: %v", err)
	}
	opts = base
	opts.Gamma = -3
	if err := opts.Validate(); !errors.Is(err, ErrBadGamma) {
		t.Fatalf("legacy gamma error lost: %v", err)
	}
}

// TestOptionsJSONModelBackCompat: legacy option documents (no model field)
// decode and run as separation, the separation wire form does not grow the
// new fields, and model'd documents round-trip.
func TestOptionsJSONModelBackCompat(t *testing.T) {
	legacy := []byte(`{"counts":[5,5],"lambda":4,"gamma":4,"seed":3}`)
	var opts Options
	if err := json.Unmarshal(legacy, &opts); err != nil {
		t.Fatal(err)
	}
	if err := opts.Validate(); err != nil {
		t.Fatal(err)
	}
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Model() != "separation" {
		t.Fatalf("legacy document resolved model %q", sys.Model())
	}

	out, err := json.Marshal(opts)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	if _, leaked := doc["model"]; leaked {
		t.Fatal("separation options encode a model field")
	}
	if _, leaked := doc["couplings"]; leaked {
		t.Fatal("separation options encode a couplings field")
	}

	modeled := Options{Counts: []int{4, 4, 4}, Model: "alignment",
		Couplings: map[string]float64{"lambda": 3, "alpha": 6, "beta": 2}, Seed: 9}
	data, err := json.Marshal(modeled)
	if err != nil {
		t.Fatal(err)
	}
	var back Options
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Model != "alignment" || back.Couplings["alpha"] != 6 {
		t.Fatalf("model options did not round-trip: %+v", back)
	}
}

// TestModelCheckpointCrossFormatResume extends the checkpoint-interchange
// guarantee to non-separation models: an alignment run checkpointed in
// either wire format resumes under the sniffing reader and finishes on the
// exact trajectory of the uninterrupted run.
func TestModelCheckpointCrossFormatResume(t *testing.T) {
	const half, full = 15_000, 40_000
	opts := Options{Counts: []int{5, 5, 5}, Model: "alignment",
		Couplings: map[string]float64{"lambda": 4, "alpha": 6, "beta": 2}, Seed: 19}
	ref, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ref.RunSteps(full)
	want, err := ref.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	for _, leg := range []struct {
		name        string
		writeBinary bool
	}{
		{"binary", true},
		{"json", false},
	} {
		t.Run(leg.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			sys, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			sys.RunSteps(half)
			if err := writeCheckpointAs(sys, path, leg.writeBinary); err != nil {
				t.Fatal(err)
			}
			resumed, err := RestoreFile(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Model() != "alignment" {
				t.Fatalf("resumed model %q", resumed.Model())
			}
			resumed.RunSteps(full - resumed.Steps())
			got, err := resumed.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("alignment trajectory diverged across checkpoint resume")
			}
		})
	}
}

// TestSeparationCheckpointOmitsModel pins wire back-compat in the other
// direction: separation checkpoints carry no model markings, in either
// format, so decoders from before the model registry still read them —
// and documents without a model field resume as separation.
func TestSeparationCheckpointOmitsModel(t *testing.T) {
	sys, err := New(Options{Counts: []int{6, 6}, Lambda: 4, Gamma: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sys.RunSteps(5_000)
	data, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if _, leaked := doc["model"]; leaked {
		t.Fatal("separation checkpoint encodes a model field")
	}
	if _, leaked := doc["couplings"]; leaked {
		t.Fatal("separation checkpoint encodes a couplings field")
	}
	restored, err := Restore(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Model() != "separation" {
		t.Fatalf("model-less document resumed as %q", restored.Model())
	}
}

// TestAnnealSystemCheckpointExact drives the annealed schedule through the
// public System surface with the binary checkpoint format: interrupting
// mid-stage and resuming crosses the remaining stage boundaries and
// finishes byte-identical to the uninterrupted run.
func TestAnnealSystemCheckpointExact(t *testing.T) {
	opts := Options{Counts: []int{40, 40}, Model: "anneal", Lambda: 4, Gamma: 16,
		Couplings: map[string]float64{"stages": 3, "stageSteps": 4_000}, Seed: 31}
	const half, full = 5_500, 14_000 // boundaries at 4k and 8k

	ref, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ref.RunSteps(full)
	want, err := ref.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "anneal.ckpt")
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunSteps(half)
	if err := sys.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	resumed, err := RestoreFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Model() != "anneal" {
		t.Fatalf("resumed model %q", resumed.Model())
	}
	resumed.RunSteps(full - resumed.Steps())
	got, err := resumed.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("anneal trajectory diverged across a checkpointed stage boundary")
	}

	names, vals := resumed.Observables()
	if names[0] != "gammaEff" || vals[0] != 16 {
		t.Fatalf("final stage %s = %v, want 16", names[0], vals[0])
	}
}

// TestSweepSpecModelValidate covers the sweep-grid validation rules for
// model'd specs.
func TestSweepSpecModelValidate(t *testing.T) {
	base := SweepSpec{Counts: []int{4, 4}, Steps: 1000, Seed: 1}

	spec := base
	spec.Model = "no-such-model"
	if err := spec.Validate(); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: %v", err)
	}

	spec = base
	spec.Lambdas, spec.Gammas = []float64{4}, []float64{4}
	spec.CouplingAxes = map[string][]float64{"gamma": {2, 4}}
	if err := spec.Validate(); !errors.Is(err, ErrBadCoupling) {
		t.Fatalf("separation with coupling axes: %v", err)
	}

	spec = base
	spec.Model = "alignment"
	spec.Lambdas = []float64{4}
	if err := spec.Validate(); !errors.Is(err, ErrBadCoupling) {
		t.Fatalf("model spec with Lambdas: %v", err)
	}

	spec = base
	spec.Model = "alignment"
	spec.CouplingAxes = map[string][]float64{"delta": {1}}
	if err := spec.Validate(); !errors.Is(err, ErrBadCoupling) {
		t.Fatalf("unknown axis name: %v", err)
	}

	spec = base
	spec.Model = "alignment"
	spec.CouplingAxes = map[string][]float64{"alpha": {}}
	if err := spec.Validate(); !errors.Is(err, ErrEmptySweep) {
		t.Fatalf("empty axis: %v", err)
	}

	spec = base
	spec.Model = "alignment"
	spec.CouplingAxes = map[string][]float64{"alpha": {2, 6}}
	if err := spec.Validate(); err != nil {
		t.Fatalf("valid model spec rejected: %v", err)
	}
}

// alignmentSweepSpec is the shared fixture of the model-sweep tests: a
// 2×2 alpha × seed grid over the alignment model.
func alignmentSweepSpec() SweepSpec {
	return SweepSpec{
		Model:        "alignment",
		Couplings:    map[string]float64{"lambda": 4, "beta": 2},
		CouplingAxes: map[string][]float64{"alpha": {2, 6}},
		Seeds:        []uint64{1, 2},
		Counts:       []int{4, 4, 4},
		Steps:        8_000,
		Workers:      2,
	}
}

// TestSweepModelGrid runs a coupling-axis sweep end to end: enumeration
// order is first-declared-coupling-major, every cell carries its coupling
// vector, and the results are deterministic across runs.
func TestSweepModelGrid(t *testing.T) {
	spec := alignmentSweepSpec()
	res, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("4-cell grid returned %d results", len(res))
	}
	alphaIdx := 1 // alignment couplings: lambda, alpha, beta
	wantAlpha := []float64{2, 2, 6, 6}
	wantSeed := []uint64{1, 2, 1, 2}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("cell %d failed: %v", i, r.Err)
		}
		if len(r.Couplings) != 3 {
			t.Fatalf("cell %d couplings %v", i, r.Couplings)
		}
		if r.Couplings[alphaIdx] != wantAlpha[i] || r.Seed != wantSeed[i] {
			t.Fatalf("cell %d is (alpha=%v, seed=%d), want (%v, %d)",
				i, r.Couplings[alphaIdx], r.Seed, wantAlpha[i], wantSeed[i])
		}
		if r.Lambda != 4 {
			t.Fatalf("cell %d lambda mirror %v, want 4", i, r.Lambda)
		}
		if r.Snap.N != 12 {
			t.Fatalf("cell %d snapshot N=%d", i, r.Snap.N)
		}
	}
	again, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(again)
	if !bytes.Equal(a, b) {
		t.Fatal("model sweep is not deterministic across runs")
	}
}

// TestSweepModelResume interrupts a checkpointed model sweep and resumes
// it: the combined results must equal the uninterrupted sweep's, and a
// manifest written under a different model spec must be rejected.
func TestSweepModelResume(t *testing.T) {
	baseline := alignmentSweepSpec()
	want, err := Sweep(context.Background(), baseline)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	spec := alignmentSweepSpec()
	spec.CheckpointPath = filepath.Join(t.TempDir(), "sweep.ckpt")
	spec.CheckpointSteps = 2_000
	ctx, cancel := context.WithCancel(context.Background())
	spec.Observe = func(done, total int) {
		if done == 2 {
			cancel()
		}
	}
	if _, err := Sweep(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v", err)
	}

	spec.Observe = nil
	got, err := ResumeSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("resumed model sweep diverged:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}

	// A spec with different couplings must not adopt the manifest.
	other := alignmentSweepSpec()
	other.CheckpointPath = spec.CheckpointPath
	other.CouplingAxes = map[string][]float64{"alpha": {3, 6}}
	if _, err := ResumeSweep(context.Background(), other); !errors.Is(err, ErrSweepCheckpointMismatch) {
		t.Fatalf("mismatched model manifest accepted: %v", err)
	}
}

// TestSweepSpecJSONModelRoundTrip: the wire schema carries the model
// coordinates, legacy documents decode unchanged, and unknown fields are
// still rejected.
func TestSweepSpecJSONModelRoundTrip(t *testing.T) {
	spec := alignmentSweepSpec()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back SweepSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Model != "alignment" || back.Couplings["beta"] != 2 || len(back.CouplingAxes["alpha"]) != 2 {
		t.Fatalf("model sweep spec did not round-trip: %+v", back)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}

	legacy := []byte(`{"lambdas":[4],"gammas":[4],"counts":[5,5],"steps":1000}`)
	var old SweepSpec
	if err := json.Unmarshal(legacy, &old); err != nil {
		t.Fatal(err)
	}
	if err := old.Validate(); err != nil {
		t.Fatal(err)
	}
	if old.Model != "" {
		t.Fatalf("legacy sweep document gained model %q", old.Model)
	}

	if err := json.Unmarshal([]byte(`{"counts":[5,5],"steps":1,"couplingGrid":{}}`), &old); err == nil {
		t.Fatal("misspelled field accepted by the strict decoder")
	}
}
