package sops

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sops/internal/failfs"
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

// writeLog is a filesystem that records, for every atomic rename onto
// path, the step the System sys has reached: one entry per durable
// checkpoint write.
type writeLog struct {
	failfs.FS
	path  string
	sys   *System
	steps []uint64
}

func (l *writeLog) Rename(oldpath, newpath string) error {
	if newpath == l.path {
		l.steps = append(l.steps, l.sys.Steps())
	}
	return l.FS.Rename(oldpath, newpath)
}

// multiples returns from, from+every, …, up to and including to.
func multiples(from, every, to uint64) []uint64 {
	var out []uint64
	for s := from; s <= to; s += every {
		out = append(out, s)
	}
	return out
}

// TestAutoCheckpointCadence pins Run's write schedule: a serial run writes
// its auto-checkpoint at every absolute multiple of the interval and once
// where it stops elsewhere, never at a sample pause and never twice at one
// step, whatever the sampling cadence. A run stopped by its Observer
// leaves that step's state, and the restored continuation writes at the
// same multiples as the uninterrupted run and ends on its state.
func TestAutoCheckpointCadence(t *testing.T) {
	const steps, every = 1_000_000, 100_000
	opts := Options{Counts: []int{10, 10}, Lambda: 4, Gamma: 4, Seed: 3}
	ctx := context.Background()
	dir := t.TempDir()
	log := &writeLog{FS: failfs.Get()}
	defer failfs.Swap(log)()
	watch := func(sys *System, name string) string {
		path := filepath.Join(dir, name)
		log.path, log.sys, log.steps = path, sys, nil
		sys.SetAutoCheckpoint(path, every)
		return path
	}

	var full *System
	for _, sample := range []uint64{0, 1_000, 30_000, 100_000} {
		sys, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		path := watch(sys, fmt.Sprintf("sample%d.ckpt", sample))
		samples := uint64(0)
		if _, err := sys.Run(ctx, RunSpec{Steps: steps, SampleEvery: sample,
			Observer: func(Snapshot) bool { samples++; return true }}); err != nil {
			t.Fatal(err)
		}
		if want := multiples(every, every, steps); !slices.Equal(log.steps, want) {
			t.Fatalf("SampleEvery %d: %d writes at steps %v, want %v", sample, len(log.steps), log.steps, want)
		}
		wantSamples := uint64(1)
		if sample > 0 {
			wantSamples = (steps + sample - 1) / sample
		}
		if samples != wantSamples {
			t.Fatalf("SampleEvery %d: %d samples, want %d", sample, samples, wantSamples)
		}
		restored, err := RestoreFile(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if restored.Stats() != sys.Stats() || !restored.Config().Equal(sys.Config()) {
			t.Fatalf("SampleEvery %d: checkpoint holds step %d, not the final state", sample, restored.Steps())
		}
		full = sys
	}

	const stopAt = 123_000
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	path := watch(sys, "stopped.ckpt")
	n, err := sys.Run(ctx, RunSpec{Steps: steps, SampleEvery: 1_000,
		Observer: func(s Snapshot) bool { return s.Steps < stopAt }})
	if err != nil || n != stopAt {
		t.Fatalf("observer stop: ran %d steps, err %v", n, err)
	}
	if want := []uint64{every, stopAt}; !slices.Equal(log.steps, want) {
		t.Fatalf("observer stop: writes at steps %v, want %v", log.steps, want)
	}
	resumed, err := RestoreFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stats() != sys.Stats() || !resumed.Config().Equal(sys.Config()) {
		t.Fatalf("observer stop left step %d, want %d", resumed.Steps(), stopAt)
	}
	watch(resumed, "stopped.ckpt")
	if _, err := resumed.Run(ctx, RunSpec{Steps: steps - stopAt}); err != nil {
		t.Fatal(err)
	}
	if want := multiples(2*every, every, steps); !slices.Equal(log.steps, want) {
		t.Fatalf("continuation: writes at steps %v, want %v", log.steps, want)
	}
	if resumed.Stats() != full.Stats() || !resumed.Config().Equal(full.Config()) {
		t.Fatal("continuation diverged from the uninterrupted run")
	}
}

// TestCancelledRunReportsFailedCheckpoint: when the checkpoint a cancelled
// run writes where it stops fails, Run returns the write's error joined
// with ctx's, so a caller that sees ctx's error bare knows the state was
// saved.
func TestCancelledRunReportsFailedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	errDisk := errors.New("disk gone")
	defer failfs.Swap(failfs.NewInjector(nil, 1, failfs.Fault{Op: failfs.OpCreate, Path: dir, Err: errDisk}))()
	sys, err := New(Options{Counts: []int{8, 8}, Lambda: 3, Gamma: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetAutoCheckpoint(filepath.Join(dir, "ck"), 1_000_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Run(ctx, RunSpec{Steps: 10_000}); !errors.Is(err, context.Canceled) || !errors.Is(err, errDisk) {
		t.Fatalf("cancelled run with a failing checkpoint returned %v, want both errors", err)
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
