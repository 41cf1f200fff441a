package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sops/internal/seal"
	"sops/internal/snapbin"
)

// store is the on-disk layout of the job queue. Under the root directory,
// each job owns one subdirectory named by its ID:
//
//	<root>/<id>/spec.json    — the submitted Spec, written once at submit
//	<root>/<id>/state.json   — the lifecycle record, atomically replaced
//	                           (a packed snapbin state document; the name
//	                           and load's JSON branch keep stores written
//	                           by JSON-era daemons readable)
//	<root>/<id>/checkpoint   — run-job chain state (auto-checkpointed)
//	<root>/<id>/sweep.ckpt   — sweep manifest (+ .cellNNNN in-flight cells)
//
// Every document travels in a seal integrity envelope written through
// atomicio (temp file + fsync + rename + dir fsync), so a crash at any
// moment leaves either the previous or the next version, never a torn
// one — and a torn or bit-flipped file is detected on read rather than
// decoded into garbage. state.json is rewritten on every transition and
// so keeps a state.json.prev last-good generation; a corrupt current
// state silently falls back to it. spec.json is written once, so a spec
// that fails verification has no fallback — the whole job directory is
// quarantined at startup (see Manager.Open). The job directory itself is
// created before Submit returns, making submission durable: a job
// accepted by the API survives an immediate kill -9.
type store struct {
	root string
}

func newStore(root string) (*store, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: create store: %w", err)
	}
	return &store{root: root}, nil
}

// dir returns job id's directory.
func (st *store) dir(id string) string { return filepath.Join(st.root, id) }

// checkpointPath is the run-job chain checkpoint file.
func (st *store) checkpointPath(id string) string { return filepath.Join(st.dir(id), "checkpoint") }

// sweepPath is the sweep manifest path (cell checkpoints hang off it).
func (st *store) sweepPath(id string) string { return filepath.Join(st.dir(id), "sweep.ckpt") }

// create durably records a newly submitted job: directory, spec and
// initial state hit the disk before it returns.
func (st *store) create(id string, spec *Spec, rec *record) error {
	if err := os.MkdirAll(st.dir(id), 0o755); err != nil {
		return fmt.Errorf("jobs: create job dir: %w", err)
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encode spec: %w", err)
	}
	if err := seal.WriteFile(filepath.Join(st.dir(id), "spec.json"), data, 0o644); err != nil {
		return fmt.Errorf("jobs: write spec: %w", err)
	}
	return st.saveState(id, rec)
}

// saveState atomically replaces job id's lifecycle record.
func (st *store) saveState(id string, rec *record) error {
	data, err := encodeRecord(rec)
	if err != nil {
		return fmt.Errorf("jobs: encode state: %w", err)
	}
	if err := seal.WriteFile(filepath.Join(st.dir(id), "state.json"), data, 0o644); err != nil {
		return fmt.Errorf("jobs: write state: %w", err)
	}
	return nil
}

// load reads one job back from disk, verifying both documents' integrity
// envelopes. A corrupt state.json falls back to its .prev generation
// transparently (seal.LoadFile); at worst the job repeats its last
// transition, which every transition is idempotent under. A corrupt
// spec.json has no previous generation and fails the load — the caller
// quarantines the job.
func (st *store) load(id string) (*Spec, *record, error) {
	specData, _, err := seal.LoadFile(filepath.Join(st.dir(id), "spec.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: read spec %s: %w", id, err)
	}
	spec := new(Spec)
	if err := json.Unmarshal(specData, spec); err != nil {
		return nil, nil, fmt.Errorf("jobs: decode spec %s: %w", id, err)
	}
	stateData, _, err := seal.LoadFile(filepath.Join(st.dir(id), "state.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: read state %s: %w", id, err)
	}
	var rec *record
	if snapbin.IsFrame(stateData) {
		rec, err = decodeRecord(stateData)
		if err != nil {
			return nil, nil, fmt.Errorf("jobs: decode state %s: %w", id, err)
		}
	} else {
		rec = new(record)
		if err := json.Unmarshal(stateData, rec); err != nil {
			return nil, nil, fmt.Errorf("jobs: decode state %s: %w", id, err)
		}
	}
	return spec, rec, nil
}

// loadAll scans the store and returns every job's ID in submission order.
// Entries that are not job directories — stray files, foreign directories
// — are skipped with a warning; the "corrupt" quarantine directory is
// expected and skipped silently. One bad entry must not take the whole
// daemon down.
func (st *store) loadAll() (ids []string, warnings []error, err error) {
	entries, err := os.ReadDir(st.root)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: scan store: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "j") {
			if e.Name() != "corrupt" {
				warnings = append(warnings, fmt.Errorf("ignoring stray store entry %q", e.Name()))
			}
			continue
		}
		ids = append(ids, e.Name())
	}
	sort.Strings(ids) // zero-padded IDs sort in submission order
	return ids, warnings, nil
}

// nextID returns the first unused sequential job ID after the existing
// ones.
func nextID(existing []string) uint64 {
	var max uint64
	for _, id := range existing {
		var n uint64
		if _, err := fmt.Sscanf(id, idFormat, &n); err == nil && n > max {
			max = n
		}
	}
	return max + 1
}

// clearRuntime removes a finished job's checkpoint files — current and
// .prev generations — keeping only the spec, state and result documents.
// The .cell* glob covers both in-flight cell checkpoints and their .prev
// siblings.
func (st *store) clearRuntime(id string) {
	os.Remove(st.checkpointPath(id))
	os.Remove(seal.PrevPath(st.checkpointPath(id)))
	os.Remove(st.sweepPath(id))
	os.Remove(seal.PrevPath(st.sweepPath(id)))
	matches, _ := filepath.Glob(st.sweepPath(id) + ".cell*")
	for _, m := range matches {
		os.Remove(m)
	}
}
