package sops

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"sops/internal/failfs"
	"sops/internal/seal"
)

// chaosOptions is the shared workload of the chaos tests: deterministic,
// small, long enough that checkpoints land mid-trajectory.
func chaosOptions() Options {
	return Options{Counts: []int{6, 6}, Lambda: 4, Gamma: 4, Seed: 9}
}

// TestCheckpointChaosMatrix is the acceptance test for corruption-resilient
// checkpointing: for every disk-fault class the failfs layer can inject,
// a checkpoint→crash→restore→finish cycle must end byte-identical (by
// configuration hash and metrics) to an uninterrupted run — the fault is
// either reported cleanly at write time or absorbed at restore time by the
// integrity envelope's .prev fallback. No fault class may silently diverge
// the trajectory.
func TestCheckpointChaosMatrix(t *testing.T) {
	const (
		mid   = 4_000
		crash = 8_000
		total = 12_000
	)
	base, err := New(chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	base.RunSteps(total)
	wantHash, wantSnap := base.Config().Hash(), base.Metrics()

	cases := []struct {
		name string
		// fault is armed after the first (clean) checkpoint write.
		fault failfs.Fault
		// wantWriteErr: the second checkpoint write must report the fault
		// (benign faults instead corrupt silently and surface at restore).
		wantWriteErr bool
	}{
		{"write-eio", failfs.Fault{Op: failfs.OpWrite}, true},
		{"write-enospc-torn", failfs.Fault{Op: failfs.OpWrite, TornAt: 64, Err: syscall.ENOSPC}, true},
		{"sync-eio", failfs.Fault{Op: failfs.OpSync}, true},
		{"create-eio", failfs.Fault{Op: failfs.OpCreate}, true},
		{"rename-eio", failfs.Fault{Op: failfs.OpRename}, true},
		{"fsync-lie", failfs.Fault{Op: failfs.OpRename, TruncateTo: 40}, false},
		{"read-bitrot", failfs.Fault{Op: failfs.OpRead, FlipBit: 600}, false},
		{"read-short", failfs.Fault{Op: failfs.OpRead, ShortBy: 10}, false},
	}
	// Both checkpoint wire formats travel in the same integrity envelope,
	// so every fault class must be absorbed identically under either.
	for _, format := range []struct {
		name   string
		binary bool
	}{{"binary", true}, {"json", false}} {
		for _, tc := range cases {
			t.Run(format.name+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "chain.ckpt")

				sys, err := New(chaosOptions())
				if err != nil {
					t.Fatal(err)
				}
				sys.RunSteps(mid)
				if err := writeCheckpointAs(sys, path, format.binary); err != nil {
					t.Fatal(err)
				}

				// Arm the fault, scoped to this test's directory so the
				// process-global swap cannot touch unrelated I/O.
				fault := tc.fault
				fault.Path = dir
				in := failfs.NewInjector(nil, 1, fault)
				restore := failfs.Swap(in)
				defer restore()

				sys.RunSteps(crash - mid)
				werr := writeCheckpointAs(sys, path, format.binary)
				if (werr != nil) != tc.wantWriteErr {
					t.Fatalf("checkpoint write under fault: err=%v, want error=%v", werr, tc.wantWriteErr)
				}

				// "Crash": discard the live system, restore from disk. Some
				// generation always verifies — the fresh one when the write
				// survived, the .prev one when it was torn or rots on read.
				resumed, err := RestoreFile(path, nil)
				if err != nil {
					t.Fatalf("RestoreFile after %s: %v", tc.name, err)
				}
				if got := resumed.Steps(); got != mid && got != crash {
					t.Fatalf("restored at step %d, want %d or %d", got, mid, crash)
				}
				resumed.RunSteps(total - resumed.Steps())

				if len(in.Fired()) == 0 {
					t.Fatalf("fault %s never fired", tc.name)
				}
				if resumed.Config().Hash() != wantHash {
					t.Fatalf("trajectory diverged: hash %016x, want %016x",
						resumed.Config().Hash(), wantHash)
				}
				if snap := resumed.Metrics(); snap != wantSnap {
					t.Fatalf("metrics diverged:\n got %+v\nwant %+v", snap, wantSnap)
				}
			})
		}
	}
}

// TestRestoreFileQuarantinesCorruptCheckpoint: the failing generation
// leaves the read path and is preserved under <dir>/corrupt/.
func TestRestoreFileQuarantinesCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "chain.ckpt")
	sys, err := New(chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	sys.RunSteps(1_000)
	if err := sys.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Only one generation exists and it is corrupt: restore must fail with
	// the classified sentinel, not garbage state.
	if _, err := RestoreFile(path, nil); !errorsIsAny(err, seal.ErrCorrupt, seal.ErrTruncated) {
		t.Fatalf("RestoreFile = %v, want classified corruption", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "corrupt", "chain.ckpt")); err != nil {
		t.Fatalf("corrupt checkpoint not quarantined: %v", err)
	}
}

func errorsIsAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}

// TestResumeSweepCorruptCellRecomputes: a bit-flipped in-flight cell
// checkpoint must cost only a recompute of that cell — the sweep still
// completes with results identical to an uninterrupted run.
func TestResumeSweepCorruptCellRecomputes(t *testing.T) {
	spec := SweepSpec{
		Lambdas:         []float64{3},
		Gammas:          []float64{3},
		Seed:            5,
		Counts:          []int{6, 6},
		Steps:           30_000,
		CheckpointPath:  filepath.Join(t.TempDir(), "sweep.json"),
		CheckpointSteps: 10_000,
	}
	sys, err := New(Options{Counts: spec.Counts, Lambda: 3, Gamma: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sys.RunSteps(10_000)
	cellFile := spec.CheckpointPath + ".cell0000"
	if err := sys.WriteCheckpoint(cellFile); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cellFile)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(cellFile, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := ResumeSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("sweep failed on a corrupt cell checkpoint: %v", err)
	}
	ref := spec
	ref.CheckpointPath = ""
	want, err := Sweep(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Snap != want[0].Snap {
		t.Fatalf("recomputed cell diverged: %+v vs %+v", got[0].Snap, want[0].Snap)
	}
}

// TestResumeSweepCorruptManifestRecomputes: a manifest with no verifiable
// generation degrades to a full recompute — never a failed or wrong sweep.
func TestResumeSweepCorruptManifestRecomputes(t *testing.T) {
	spec := SweepSpec{
		Lambdas:        []float64{2, 4},
		Gammas:         []float64{2},
		Seeds:          []uint64{1, 2},
		Counts:         []int{6, 6},
		Steps:          5_000,
		CheckpointPath: filepath.Join(t.TempDir(), "sweep.json"),
	}
	want, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wreck every generation: garbage in the manifest, .prev removed.
	if err := os.WriteFile(spec.CheckpointPath, []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(seal.PrevPath(spec.CheckpointPath))

	recomputed := 0
	spec.Observe = func(done, total int) { recomputed++ }
	got, err := ResumeSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("resume with corrupt manifest: %v", err)
	}
	if recomputed == 0 {
		t.Fatal("corrupt manifest was somehow trusted")
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("recomputed sweep diverged:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
}
