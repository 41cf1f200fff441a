package jobs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sops"
	"sops/internal/metrics"
	"sops/internal/seal"
	"sops/internal/snapbin"
)

func snapFor(steps uint64) *sops.Snapshot {
	return &sops.Snapshot{
		Steps: steps, N: 100, Perimeter: 60, MinPerimeter: 36,
		Alpha: 60.0 / 36.0, Edges: 240, HomEdges: 200, HetEdges: 40,
		Segregation: 0.71, LargestFrac: 0.96,
		Phase: metrics.CompressedSeparated,
	}
}

func TestRecordBinaryRoundTrip(t *testing.T) {
	now := time.Unix(1754600000, 123456789).UTC()
	cases := map[string]*record{
		"queued": {ID: "j00000001", State: StateQueued, Created: now},
		"running": {
			ID: "j00000002", State: StateRunning,
			Created: now, Started: now.Add(time.Second),
			Attempts: 1, Requeues: 2,
		},
		"failed": {
			ID: "j00000003", State: StatePoisoned,
			Created: now, Started: now.Add(time.Second),
			Finished: now.Add(time.Minute),
			Error:    "watchdog: stalled twice", Attempts: 3,
		},
		"run-result": {
			ID: "j00000004", State: StateDone, Created: now,
			Started: now.Add(time.Second), Finished: now.Add(time.Hour),
			Result: &Result{Snap: snapFor(1e6)},
		},
		"sweep-result": {
			ID: "j00000005", State: StateDone, Created: now,
			Result: &Result{Cells: []CellOutcome{
				{Lambda: 4, Gamma: 4, Seed: 7, Snap: snapFor(5e5)},
				{Lambda: 4, Gamma: 0.5, Seed: 8, Retries: 2, Error: "cell exploded"},
			}},
		},
		"empty-result": {
			ID: "j00000006", State: StateCanceled, Created: now,
			Result: &Result{},
		},
	}
	for name, rec := range cases {
		t.Run(name, func(t *testing.T) {
			frame, err := encodeRecord(rec)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !snapbin.IsFrame(frame) {
				t.Fatalf("encoded record is not a snapbin frame")
			}
			got, err := decodeRecord(frame)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, rec) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
			}
		})
	}
}

func TestRecordBinaryRejectsCorrupt(t *testing.T) {
	rec := &record{
		ID: "j00000007", State: StateDone,
		Created: time.Unix(1754600000, 0).UTC(),
		Result: &Result{Cells: []CellOutcome{
			{Lambda: 4, Gamma: 4, Seed: 1, Snap: snapFor(10)},
		}},
	}
	frame, err := encodeRecord(rec)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Truncations at every boundary must error, never panic.
	for n := 0; n < len(frame); n++ {
		if _, err := decodeRecord(frame[:n]); err == nil {
			t.Fatalf("decode accepted a %d/%d-byte truncation", n, len(frame))
		}
	}
	if _, err := decodeRecord(append(append([]byte(nil), frame...), 0)); err == nil {
		t.Fatalf("decode accepted trailing garbage")
	}
	// An undefined state code must be rejected.
	bad := append([]byte(nil), frame...)
	bad[snapbin.HeaderSize+1+len(rec.ID)] = 200
	if _, err := decodeRecord(bad); err == nil {
		t.Fatalf("decode accepted an undefined state code")
	}
}

// TestJSONEraStateDocReopens: a store whose state.json holds the sealed
// JSON record a pre-snapbin daemon wrote (json.MarshalIndent) still opens,
// and the finished job keeps its record and result.
func TestJSONEraStateDocReopens(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.Submit(smallRun("acme", 5))
	if err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, m, sub.ID, terminal)
	m.Close()
	if final.State != StateDone || final.Result == nil || final.Result.Snap == nil {
		t.Fatalf("job did not finish with a result: %+v", final)
	}

	st, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := st.load(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.dir(sub.ID), "state.json")
	if err := seal.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(seal.PrevPath(path)); err != nil {
		t.Fatal(err)
	}
	if payload, err := seal.ReadFile(path); err != nil || snapbin.IsFrame(payload) {
		t.Fatalf("state.json is not a sealed JSON record (err %v)", err)
	}

	m, err = Open(Config{Dir: dir, Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if n := m.Health().QuarantinedJobs.Load(); n != 0 {
		t.Fatalf("JSON-era state doc quarantined %d job(s)", n)
	}
	m.mu.Lock()
	got := m.jobs[sub.ID].rec
	m.mu.Unlock()
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("record changed across reopen:\n got %+v\nwant %+v", &got, want)
	}
	after, err := m.Status(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.State != StateDone || !reflect.DeepEqual(after.Result, final.Result) {
		t.Fatalf("result changed across reopen:\n got %+v\nwant %+v", after, final)
	}
}
