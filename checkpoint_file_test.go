package sops

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteCheckpointRestoreFile: a System restored from a checkpoint file
// continues the exact trajectory of the original.
func TestWriteCheckpointRestoreFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sys.ckpt")
	sys, err := New(Options{Counts: []int{8, 8}, Lambda: 3, Gamma: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sys.RunSteps(40_000)
	if err := sys.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatalf("restored system violates invariants: %v", err)
	}
	sys.RunSteps(40_000)
	restored.RunSteps(40_000)
	if sys.Metrics() != restored.Metrics() {
		t.Fatal("restored system diverged from the original")
	}
}

// TestSealedCheckpointAfterRehome: a sealed checkpoint written on the step
// right after a move re-homed the storage window restores onto the
// identical trajectory.
func TestSealedCheckpointAfterRehome(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rehome.ckpt")
	sys, err := New(Options{Counts: []int{5, 5}, Lambda: 0.25, Gamma: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for win := sys.Config().Window(); sys.Config().Window() == win; {
		if sys.Steps() > 2_000_000 {
			t.Fatal("no re-home in 2,000,000 expanding steps")
		}
		sys.Step()
	}
	if err := sys.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		sys.RunSteps(20_000)
		restored.RunSteps(20_000)
		if sys.Stats() != restored.Stats() || sys.Config().CanonicalKey() != restored.Config().CanonicalKey() {
			t.Fatalf("round %d: restored system diverged from the original", round)
		}
	}
}

// TestAutoCheckpoint: Run writes checkpoints on its configured
// interval, and a System resumed from the mid-run checkpoint finishes on
// the same trajectory as the uninterrupted run.
func TestAutoCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "auto.ckpt")
	sys, err := New(Options{Counts: []int{8, 8}, Lambda: 3, Gamma: 3, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetAutoCheckpoint(path, 10_000)
	if _, err := sys.Run(context.Background(), RunSpec{Steps: 25_000}); err != nil {
		t.Fatal(err)
	}
	// The final interval flush makes the file current with the live System.
	restored, err := RestoreFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Steps() != 25_000 {
		t.Fatalf("checkpoint holds %d steps, want 25000", restored.Steps())
	}
	restored.RunSteps(25_000)
	sys.SetAutoCheckpoint("", 0)
	sys.RunSteps(25_000)
	if sys.Metrics() != restored.Metrics() {
		t.Fatal("resumed run diverged from the uninterrupted one")
	}
}

// TestRestoreFileErrors: missing and corrupt checkpoint files report
// errors rather than half-built Systems.
func TestRestoreFileErrors(t *testing.T) {
	if _, err := RestoreFile(filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreFile(bad, nil); err == nil {
		t.Fatal("corrupt file accepted")
	}
}
