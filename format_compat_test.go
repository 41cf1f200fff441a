package sops

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sops/internal/seal"
	"sops/internal/snapbin"
)

// writeCheckpointAs writes sys's checkpoint to path: the sealed snapbin
// frame WriteCheckpoint writes, or with binary false the sealed JSON
// document `sops -convert ck -o ck.json` writes, which is also what
// JSON-era builds put on disk.
func writeCheckpointAs(sys *System, path string, binary bool) error {
	if binary {
		return sys.WriteCheckpoint(path)
	}
	data, err := sys.Checkpoint()
	if err != nil {
		return err
	}
	return seal.WriteFile(path, data, 0o644)
}

// convertToJSON rewrites the sealed checkpoint or sweep manifest at path
// as its JSON document, the way `sops -convert` does, and drops the
// binary generation that the write rotated to path+".prev".
func convertToJSON(t *testing.T, path string) {
	t.Helper()
	payload, err := seal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := snapbin.ParseHeader(payload)
	if err != nil {
		t.Fatal(err)
	}
	var data []byte
	switch h.Kind {
	case snapbin.KindCheckpoint:
		sys, err := Restore(payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err = sys.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
	case snapbin.KindManifest:
		if data, err = ConvertSweepManifest(payload, false); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("%s: frame kind %d has no JSON form", path, h.Kind)
	}
	if err := seal.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(seal.PrevPath(path)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCrossFormatResume pins format interchange on the checkpoint
// surface: a run checkpointed in either wire format restores and continues
// the exact trajectory — the final serialized state is byte-identical to
// the uninterrupted run's.
func TestCheckpointCrossFormatResume(t *testing.T) {
	const half, full = 20_000, 50_000
	opts := Options{Counts: []int{8, 8}, Lambda: 4, Gamma: 4, Seed: 11}
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
		{"binary-written_restored-anywhere", true},
		{"json-written_restored-under-binary-default", false},
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
			// Restore sniffs the stored format.
			resumed, err := RestoreFile(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resumed.RunSteps(full - resumed.Steps())
			got, err := resumed.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trajectory diverged after cross-format resume:\nwant %s\ngot  %s", want, got)
			}
		})
	}
}

// TestSweepResumeAcrossManifestFormats pins format interchange on the sweep
// surface: a sweep interrupted with its manifest and in-flight cells in the
// JSON format, as JSON-era builds left them, resumes under the binary
// writers and produces results byte-identical to the uninterrupted sweep.
func TestSweepResumeAcrossManifestFormats(t *testing.T) {
	baseline := resumeSpec(t.TempDir())
	baseline.CheckpointPath = ""
	want, err := Sweep(context.Background(), baseline)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("json-then-binary", func(t *testing.T) {
		spec := resumeSpec(t.TempDir())
		ctx, cancel := context.WithCancel(context.Background())
		spec.Observe = func(done, total int) {
			if done == 3 {
				cancel()
			}
		}
		if _, err := Sweep(ctx, spec); !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted sweep returned %v", err)
		}
		if _, err := os.Stat(spec.CheckpointPath); err != nil {
			t.Fatalf("no manifest written before interruption: %v", err)
		}
		// Whether a cell was mid-run at the cancel is a race, so also plant
		// an in-flight checkpoint for the last cell, which three completions
		// cannot have reached.
		all := spec.cells()
		last := all[len(all)-1]
		sys, err := New(Options{Counts: spec.Counts, Lambda: last.lambda, Gamma: last.gamma, Seed: last.seed})
		if err != nil {
			t.Fatal(err)
		}
		sys.RunSteps(2 * spec.CheckpointSteps)
		if err := sys.WriteCheckpoint(fmt.Sprintf("%s.cell%04d", spec.CheckpointPath, last.index)); err != nil {
			t.Fatal(err)
		}
		cells, err := filepath.Glob(spec.CheckpointPath + ".cell[0-9][0-9][0-9][0-9]")
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range append(cells, spec.CheckpointPath) {
			convertToJSON(t, path)
		}

		spec.Observe = nil
		got, err := ResumeSweep(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("cross-format resume diverged from uninterrupted run:\nwant %s\ngot  %s",
				wantJSON, gotJSON)
		}
	})
}

// TestConvertSweepManifestRoundTrip: transcoding a manifest binary → JSON →
// binary preserves the key and every cell record exactly.
func TestConvertSweepManifestRoundTrip(t *testing.T) {
	spec := resumeSpec(t.TempDir())
	if _, err := Sweep(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	sealed, err := os.ReadFile(spec.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := seal.Decode(sealed)
	if err != nil {
		t.Fatal(err)
	}
	asJSON, err := ConvertSweepManifest(payload, false)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ConvertSweepManifest(asJSON, true)
	if err != nil {
		t.Fatal(err)
	}
	// Manifest frames carry no placement window, so the re-encoded frame is
	// byte-identical, not merely record-equal.
	if !bytes.Equal(payload, back) {
		t.Fatalf("manifest binary → JSON → binary is not byte-identical")
	}
	key1, recs1, err := decodeManifestPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	key2, recs2, err := decodeManifestPayload(asJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(key1, key2) {
		t.Fatalf("spec key changed across conversion")
	}
	if len(recs1) != len(recs2) {
		t.Fatalf("cell count changed across conversion: %d vs %d", len(recs1), len(recs2))
	}
	for i := range recs1 {
		if recs1[i] != recs2[i] {
			t.Fatalf("cell %d changed across conversion: %+v vs %+v", i, recs1[i], recs2[i])
		}
	}
}
