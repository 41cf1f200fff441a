package sops

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"sops/internal/seal"
	"sops/internal/snapbin"
)

// ErrSweepCheckpointMismatch reports a sweep manifest that was written
// under a different SweepSpec than the one trying to resume from it.
var ErrSweepCheckpointMismatch = errors.New("sops: sweep checkpoint belongs to a different spec")

// sweepKey is the determinism-relevant projection of a SweepSpec: two
// specs with equal keys enumerate the same cells and produce the same
// results, so a manifest may only be resumed under a spec with the key it
// was written under. Concurrency, observation and checkpoint cadences are
// deliberately excluded — they never affect results.
type sweepKey struct {
	Lambdas      []float64  `json:"lambdas"`
	Gammas       []float64  `json:"gammas"`
	Seeds        []uint64   `json:"seeds"`
	Counts       []int      `json:"counts"`
	Layout       Layout     `json:"layout"`
	Separated    bool       `json:"separated"`
	DisableSwaps bool       `json:"disableSwaps"`
	Steps        uint64     `json:"steps"`
	Thresholds   Thresholds `json:"thresholds"`
	// Model-sweep coordinates; all omitted on the separation grid so
	// legacy separation manifests keep their original key bytes.
	Model        string               `json:"model,omitempty"`
	Couplings    map[string]float64   `json:"couplings,omitempty"`
	CouplingAxes map[string][]float64 `json:"couplingAxes,omitempty"`
}

// sweepCellRecord is one completed cell in the manifest. The grid
// coordinates are implied by the index — the spec's enumeration is stable.
type sweepCellRecord struct {
	Index   int      `json:"index"`
	Retries int      `json:"retries,omitempty"`
	Snap    Snapshot `json:"snap"`
}

// sweepManifest is the checkpoint file: the spec key it was written
// under plus the cells completed so far, in completion order.
type sweepManifest struct {
	Key  json.RawMessage   `json:"spec"`
	Done []sweepCellRecord `json:"done"`
}

// sweepCheckpointer persists sweep progress: an atomically replaced
// manifest of completed cells at path (a sealed snapbin frame; JSON-era
// manifests still load), plus optional per-cell chain checkpoints at
// path + ".cellNNNN" while cells are in flight. All methods are safe for
// concurrent use by the sweep workers; a nil checkpointer is valid and
// does nothing.
type sweepCheckpointer struct {
	path  string
	steps uint64 // in-flight chain checkpoint interval, 0 = off
	key   []byte // canonical JSON of the spec's sweepKey

	mu       sync.Mutex
	done     []sweepCellRecord
	recorded map[int]bool
	attempts map[int]int
	unsaved  bool            // done holds cells the manifest on disk lacks
	enc      snapbin.Encoder // reusable binary-manifest encode scratch
	sealed   []byte
}

// newSweepCheckpointer builds the checkpointer for spec, or nil when the
// spec does not request checkpointing.
func newSweepCheckpointer(spec SweepSpec) (*sweepCheckpointer, error) {
	if spec.CheckpointPath == "" {
		return nil, nil
	}
	key, err := json.Marshal(sweepKey{
		Lambdas:      spec.Lambdas,
		Gammas:       spec.Gammas,
		Seeds:        spec.resolveSeeds(),
		Counts:       spec.Counts,
		Layout:       spec.Layout,
		Separated:    spec.Separated,
		DisableSwaps: spec.DisableSwaps,
		Steps:        spec.Steps,
		Thresholds:   spec.resolveThresholds(),
		Model:        spec.Model,
		Couplings:    spec.Couplings,
		CouplingAxes: spec.CouplingAxes,
	})
	if err != nil {
		return nil, fmt.Errorf("sops: encode sweep key: %w", err)
	}
	return &sweepCheckpointer{
		path:     spec.CheckpointPath,
		steps:    spec.CheckpointSteps,
		key:      key,
		recorded: make(map[int]bool),
		attempts: make(map[int]int),
	}, nil
}

// cellPath is the in-flight chain checkpoint file for cell i.
func (ck *sweepCheckpointer) cellPath(i int) string {
	return fmt.Sprintf("%s.cell%04d", ck.path, i)
}

// load reads the manifest and returns the completed cells by index. A
// missing manifest is an empty (not failed) resume; a manifest written
// under a different spec key is rejected with ErrSweepCheckpointMismatch.
// Loaded records seed the checkpointer so later writes preserve them.
//
// The manifest travels in an integrity envelope: a corrupt or truncated
// manifest is quarantined (see seal.LoadFile) and the ".prev" generation
// used instead — losing the cells completed since that generation, which
// resume simply recomputes. When no generation verifies, the resume
// degrades to a fresh start rather than failing the sweep: every cell is
// recomputed, and the results are identical to an uninterrupted run.
func (ck *sweepCheckpointer) load() (map[int]sweepCellRecord, error) {
	data, _, err := seal.LoadFile(ck.path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil, nil
	case errors.Is(err, seal.ErrCorrupt), errors.Is(err, seal.ErrTruncated):
		// Corrupt with no recoverable generation: the bad file is
		// quarantined by LoadFile; recompute from scratch.
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("sops: read sweep checkpoint: %w", err)
	}
	key, recs, err := decodeManifestPayload(data)
	if err != nil {
		return nil, fmt.Errorf("sops: decode sweep checkpoint: %w", err)
	}
	if !bytes.Equal(key, ck.key) {
		return nil, ErrSweepCheckpointMismatch
	}
	completed := make(map[int]sweepCellRecord, len(recs))
	ck.mu.Lock()
	defer ck.mu.Unlock()
	for _, rec := range recs {
		if ck.recorded[rec.Index] {
			continue
		}
		ck.recorded[rec.Index] = true
		ck.done = append(ck.done, rec)
		completed[rec.Index] = rec
	}
	return completed, nil
}

// decodeManifestPayload parses an unsealed sweep manifest in either wire
// format, sniffing the snapbin magic, and returns the canonical spec key
// it was written under plus its completed cells.
func decodeManifestPayload(data []byte) ([]byte, []sweepCellRecord, error) {
	if snapbin.IsFrame(data) {
		key, mrecs, err := snapbin.DecodeManifest(data)
		if err != nil {
			return nil, nil, err
		}
		recs := make([]sweepCellRecord, len(mrecs))
		for i, mr := range mrecs {
			recs[i] = sweepCellRecord{Index: mr.Index, Retries: mr.Retries, Snap: mr.Snap}
		}
		return key, recs, nil
	}
	var m sweepManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, nil, err
	}
	stored := new(bytes.Buffer)
	if err := json.Compact(stored, m.Key); err != nil {
		return nil, nil, fmt.Errorf("spec key: %w", err)
	}
	return stored.Bytes(), m.Done, nil
}

// encodeManifestPayload renders a sweep manifest in the requested wire
// format, unsealed.
func encodeManifestPayload(key []byte, recs []sweepCellRecord, binary bool) ([]byte, error) {
	if binary {
		var enc snapbin.Encoder
		return enc.EncodeManifest(key, len(recs), func(i int) snapbin.ManifestRecord {
			rec := &recs[i]
			return snapbin.ManifestRecord{Index: rec.Index, Retries: rec.Retries, Snap: rec.Snap}
		}), nil
	}
	data, err := json.Marshal(sweepManifest{Key: key, Done: recs})
	if err != nil {
		return nil, fmt.Errorf("encode manifest: %w", err)
	}
	return data, nil
}

// ConvertSweepManifest transcodes an unsealed sweep-manifest payload (from
// inside its seal envelope) to the requested wire format: binary selects
// the packed snapbin manifest frame, otherwise the JSON document. The
// conversion is lossless in both directions — resuming a sweep from the
// converted manifest completes exactly the cells the original recorded.
func ConvertSweepManifest(payload []byte, binary bool) ([]byte, error) {
	key, recs, err := decodeManifestPayload(payload)
	if err != nil {
		return nil, fmt.Errorf("sops: decode sweep manifest: %w", err)
	}
	out, err := encodeManifestPayload(key, recs, binary)
	if err != nil {
		return nil, fmt.Errorf("sops: %w", err)
	}
	return out, nil
}

// beginAttempt counts an execution attempt of cell i, so the manifest can
// record how many retries a completed cell consumed.
func (ck *sweepCheckpointer) beginAttempt(i int) {
	ck.mu.Lock()
	ck.attempts[i]++
	ck.mu.Unlock()
}

// restoreCell rebuilds cell c's System from its in-flight chain
// checkpoint, or returns nil when the cell should start fresh (no
// checkpointing, no usable file, or a file that does not match the cell's
// model and coordinates).
func (ck *sweepCheckpointer) restoreCell(c sweepCell, spec *SweepSpec, th Thresholds) *System {
	if ck == nil || ck.steps == 0 {
		return nil
	}
	sys, err := RestoreFile(ck.cellPath(c.index), &th)
	if err != nil {
		return nil
	}
	if sys.Steps() > spec.Steps {
		return nil
	}
	if c.coup != nil {
		if sys.Model() != spec.Model || !equalCouplings(sys.Couplings(), c.coup) {
			return nil
		}
		return sys
	}
	p := sys.Params()
	if sys.Model() != "separation" || p.Lambda != c.lambda || p.Gamma != c.gamma {
		return nil
	}
	return sys
}

// equalCouplings compares two coupling vectors elementwise.
func equalCouplings(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// complete records cell i's result, drops its in-flight checkpoint, and
// rewrites the manifest. A failed write leaves the completion pending for
// the next write, or for flush at the end of the sweep.
func (ck *sweepCheckpointer) complete(i int, snap Snapshot) error {
	ck.mu.Lock()
	if !ck.recorded[i] {
		ck.recorded[i] = true
		ck.done = append(ck.done, sweepCellRecord{
			Index:   i,
			Retries: ck.attempts[i] - 1,
			Snap:    snap,
		})
		ck.unsaved = true
	}
	var err error
	if ck.unsaved {
		err = ck.writeLocked()
	}
	ck.mu.Unlock()
	if ck.steps > 0 {
		os.Remove(ck.cellPath(i))
		os.Remove(seal.PrevPath(ck.cellPath(i)))
	}
	return err
}

// flush writes the manifest if completions arrived since the last write.
func (ck *sweepCheckpointer) flush() error {
	if ck == nil {
		return nil
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if !ck.unsaved {
		return nil
	}
	return ck.writeLocked()
}

// writeLocked atomically replaces the sealed manifest frame, keeping the
// previous generation; ck.mu must be held. The frame is encoded into a
// scratch buffer the checkpointer reuses across writes, so the periodic
// manifest rewrite does not allocate once the buffer has grown to size.
func (ck *sweepCheckpointer) writeLocked() error {
	frame := ck.enc.EncodeManifest(ck.key, len(ck.done), func(i int) snapbin.ManifestRecord {
		rec := &ck.done[i]
		return snapbin.ManifestRecord{Index: rec.Index, Retries: rec.Retries, Snap: rec.Snap}
	})
	ck.sealed = seal.AppendEncode(ck.sealed[:0], frame)
	if err := seal.WriteSealed(ck.path, ck.sealed, 0o644); err != nil {
		return fmt.Errorf("sops: write sweep checkpoint: %w", err)
	}
	ck.unsaved = false
	return nil
}
