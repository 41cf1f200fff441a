package sops

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// resumeSpec is the shared workload of the resume tests: large enough that
// interruption lands mid-sweep, small enough to stay fast.
func resumeSpec(dir string) SweepSpec {
	return SweepSpec{
		Lambdas:         []float64{2, 4},
		Gammas:          []float64{1, 4},
		Seeds:           []uint64{1, 2},
		Counts:          []int{6, 6},
		Steps:           30_000,
		Workers:         2,
		CheckpointPath:  filepath.Join(dir, "sweep.json"),
		CheckpointSteps: 5_000,
	}
}

// TestResumeSweepMatchesUninterrupted is the acceptance test for sweep
// checkpointing: a sweep cancelled partway through and resumed from its
// checkpoints produces a byte-identical result slice to the same sweep run
// uninterrupted.
func TestResumeSweepMatchesUninterrupted(t *testing.T) {
	baseline := resumeSpec(t.TempDir())
	baseline.CheckpointPath = "" // uninterrupted reference, no checkpointing
	want, err := Sweep(context.Background(), baseline)
	if err != nil {
		t.Fatal(err)
	}

	spec := resumeSpec(t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	spec.Observe = func(done, total int) {
		if done == 3 {
			cancel() // kill the sweep after three cells completed
		}
	}
	partial, err := Sweep(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v", err)
	}
	interrupted := 0
	for _, r := range partial {
		if r.Err != nil {
			interrupted++
		}
	}
	if interrupted == 0 || interrupted == len(partial) {
		t.Fatalf("cancellation landed outside the sweep: %d of %d cells interrupted",
			interrupted, len(partial))
	}

	spec.Observe = nil
	got, err := ResumeSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("resumed results differ from uninterrupted run:\nwant %s\ngot  %s",
			wantJSON, gotJSON)
	}
}

// TestResumeSweepRestoresInFlightCell: a cell with an in-flight chain
// checkpoint continues mid-trajectory and still lands on the exact result
// of an uninterrupted run, and its checkpoint file is removed once done.
func TestResumeSweepRestoresInFlightCell(t *testing.T) {
	spec := SweepSpec{
		Lambdas:         []float64{3},
		Gammas:          []float64{3},
		Seed:            5,
		Counts:          []int{6, 6},
		Steps:           50_000,
		CheckpointPath:  filepath.Join(t.TempDir(), "sweep.json"),
		CheckpointSteps: 10_000,
	}
	// Plant the in-flight state by hand: the same cell, stopped at 20k steps.
	sys, err := New(Options{Counts: spec.Counts, Lambda: 3, Gamma: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sys.RunSteps(20_000)
	cellFile := spec.CheckpointPath + ".cell0000"
	if err := sys.WriteCheckpoint(cellFile); err != nil {
		t.Fatal(err)
	}

	// Execution identity, not just metric equality: a System restored from
	// the planted checkpoint and run to the cell's full step count must land
	// on the same configuration — compared by translation-invariant hash —
	// as an uninterrupted system with the same parameters.
	blob, err := os.ReadFile(cellFile)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	restored.RunSteps(spec.Steps - restored.Steps())
	full, err := New(Options{Counts: spec.Counts, Lambda: 3, Gamma: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	full.RunSteps(spec.Steps)
	if restored.Config().Hash() != full.Config().Hash() {
		t.Fatalf("resumed trajectory hash %016x differs from uninterrupted %016x",
			restored.Config().Hash(), full.Config().Hash())
	}

	got, err := ResumeSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := spec
	ref.CheckpointPath = ""
	want, err := Sweep(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Snap != want[0].Snap {
		t.Fatalf("restored cell diverged: %+v vs %+v", got[0].Snap, want[0].Snap)
	}
	if _, err := os.Stat(cellFile); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("completed cell left its checkpoint behind: %v", err)
	}
}

// TestResumeSweepCompletedManifest: resuming a finished sweep re-runs
// nothing and returns the recorded results.
func TestResumeSweepCompletedManifest(t *testing.T) {
	spec := resumeSpec(t.TempDir())
	want, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	spec.Observe = func(done, total int) { ran = true }
	got, err := ResumeSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("fully-checkpointed sweep re-ran cells")
	}
	for i := range want {
		if got[i].Snap != want[i].Snap {
			t.Fatalf("cell %d: %+v vs %+v", i, got[i].Snap, want[i].Snap)
		}
	}
}

// TestResumeSweepValidation: a manifest from a different spec is rejected,
// and ResumeSweep demands a checkpoint path.
func TestResumeSweepValidation(t *testing.T) {
	if _, err := ResumeSweep(context.Background(), SweepSpec{Lambdas: []float64{1}, Gammas: []float64{1}, Counts: []int{2}}); !errors.Is(err, ErrNoCheckpointPath) {
		t.Fatalf("missing path accepted: %v", err)
	}
	spec := resumeSpec(t.TempDir())
	if _, err := Sweep(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	spec.Steps++ // different trajectory: the manifest must not be trusted
	if _, err := ResumeSweep(context.Background(), spec); !errors.Is(err, ErrSweepCheckpointMismatch) {
		t.Fatalf("foreign manifest accepted: %v", err)
	}
}

// TestSweepSurfacesRetries: a deterministically failing cell consumes its
// whole retry budget and the count lands in its CellResult.
func TestSweepSurfacesRetries(t *testing.T) {
	results, err := Sweep(context.Background(), SweepSpec{
		Lambdas: []float64{4, -1},
		Gammas:  []float64{4},
		Counts:  []int{4, 4},
		Steps:   100,
		Retries: 2,
	})
	if err == nil {
		t.Fatal("invalid cell succeeded")
	}
	if results[0].Err != nil || results[0].Retries != 0 {
		t.Fatalf("healthy cell: %+v", results[0])
	}
	if !errors.Is(results[1].Err, ErrBadLambda) || results[1].Retries != 2 {
		t.Fatalf("failing cell: err=%v retries=%d", results[1].Err, results[1].Retries)
	}
}
