package jobs

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sops"
)

// smallRun builds a quick deterministic run spec.
func smallRun(tenant string, seed uint64) *Spec {
	return &Spec{
		Tenant: tenant,
		Run: &RunJob{
			Options: sops.Options{Counts: []int{6, 6}, Lambda: 4, Gamma: 4, Seed: seed},
			Steps:   2_000,
		},
	}
}

// smallSweep builds a multi-cell sweep spec.
func smallSweep(steps uint64) *Spec {
	return &Spec{
		Sweep: &sops.SweepSpec{
			Lambdas: []float64{2, 4},
			Gammas:  []float64{2, 4},
			Seeds:   []uint64{1, 2},
			Counts:  []int{6, 6},
			Steps:   steps,
		},
	}
}

// waitFor polls job id on m until pred accepts its status.
func waitFor(t *testing.T, m *Manager, id string, pred func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		if pred(st) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := m.Status(id)
	t.Fatalf("job %s never reached expected state (last: %s)", id, st.State)
	return Status{}
}

func terminal(st Status) bool { return st.State.Terminal() }

// waitGone polls until path no longer exists (checkpoint cleanup happens
// just after the terminal state becomes visible).
func waitGone(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s survived job completion", path)
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want error
	}{
		{"no work", Spec{}, ErrNoWork},
		{"both", Spec{Run: &RunJob{}, Sweep: &sops.SweepSpec{}}, ErrBothWork},
		{"run no counts", Spec{Run: &RunJob{Options: sops.Options{Lambda: 4, Gamma: 4}, Steps: 1}}, sops.ErrNoCounts},
		{"run bad lambda", Spec{Run: &RunJob{Options: sops.Options{Counts: []int{4}, Gamma: 4}, Steps: 1}}, sops.ErrBadLambda},
		{"run no steps", Spec{Run: &RunJob{Options: sops.Options{Counts: []int{4}, Lambda: 4, Gamma: 4}}}, sops.ErrNoSteps},
		{"sweep empty", Spec{Sweep: &sops.SweepSpec{Counts: []int{4}, Steps: 1}}, sops.ErrEmptySweep},
		{"sweep no steps", Spec{Sweep: &sops.SweepSpec{Lambdas: []float64{2}, Gammas: []float64{2}, Counts: []int{4}}}, sops.ErrNoSteps},
		{"valid run", *smallRun("", 1), nil},
		{"valid sweep", *smallSweep(100), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := newStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := smallRun("acme", 7)
	rec := &record{ID: "j00000001", State: StateQueued, Created: time.Now().UTC()}
	if err := st.create("j00000001", spec, rec); err != nil {
		t.Fatal(err)
	}
	rec2 := &record{ID: "j00000002", State: StateDone, Created: time.Now().UTC()}
	if err := st.create("j00000002", smallSweep(100), rec2); err != nil {
		t.Fatal(err)
	}

	gotSpec, gotRec, err := st.load("j00000001")
	if err != nil {
		t.Fatal(err)
	}
	if gotSpec.Tenant != "acme" || gotSpec.Run == nil || gotSpec.Run.Options.Seed != 7 {
		t.Fatalf("loaded spec mismatch: %+v", gotSpec)
	}
	if gotRec.State != StateQueued {
		t.Fatalf("loaded state = %s, want queued", gotRec.State)
	}

	// State replacement is atomic and visible on reload.
	gotRec.State = StateRunning
	if err := st.saveState("j00000001", gotRec); err != nil {
		t.Fatal(err)
	}
	_, again, err := st.load("j00000001")
	if err != nil {
		t.Fatal(err)
	}
	if again.State != StateRunning {
		t.Fatalf("reloaded state = %s, want running", again.State)
	}

	ids, _, err := st.loadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "j00000001" || ids[1] != "j00000002" {
		t.Fatalf("loadAll = %v", ids)
	}
	if n := nextID(ids); n != 3 {
		t.Fatalf("nextID = %d, want 3", n)
	}
}

func TestManagerRunJobLifecycle(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir(), Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	st, err := m.Submit(smallRun("acme", 1))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.ID == "" || st.Tenant != "acme" {
		t.Fatalf("submit status = %+v", st)
	}

	final := waitFor(t, m, st.ID, terminal)
	if final.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Snap == nil {
		t.Fatalf("done job carries no result: %+v", final)
	}
	if final.Result.Snap.Steps != 2_000 {
		t.Fatalf("result steps = %d, want 2000", final.Result.Snap.Steps)
	}
	if final.Finished.IsZero() || final.Started.IsZero() {
		t.Fatalf("timestamps missing: %+v", final)
	}

	// Runtime checkpoints are cleared once the job is terminal (shortly
	// after the state flip; finish persists before it sweeps).
	waitGone(t, m.st.checkpointPath(st.ID))
}

func TestManagerSweepJobLifecycle(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir(), Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	st, err := m.Submit(smallSweep(500))
	if err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, m, st.ID, terminal)
	if final.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", final.State, final.Error)
	}
	if final.Result == nil || len(final.Result.Cells) != 8 {
		t.Fatalf("want 8 cells, got %+v", final.Result)
	}
	for _, c := range final.Result.Cells {
		if c.Error != "" || c.Snap == nil || c.Snap.Steps != 500 {
			t.Fatalf("bad cell outcome: %+v", c)
		}
	}
}

func TestManagerCancel(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir(), Workers: 1, CheckpointEvery: 10_000, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Occupy the single worker with a long job, so the second stays queued.
	long := &Spec{Run: &RunJob{
		Options: sops.Options{Counts: []int{8, 8}, Lambda: 4, Gamma: 4, Seed: 1},
		Steps:   1 << 40,
	}}
	running, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(smallRun("", 2))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, m, running.ID, func(st Status) bool { return st.State == StateRunning })

	// Canceling a queued job is immediate.
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	st, _ := m.Status(queued.ID)
	if st.State != StateCanceled {
		t.Fatalf("queued cancel → %s, want canceled", st.State)
	}

	// Canceling a running job interrupts it with the cancel cause.
	if err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, m, running.ID, terminal)
	if final.State != StateCanceled {
		t.Fatalf("running cancel → %s (error %q), want canceled", final.State, final.Error)
	}

	// Cancel of a finished job reports ErrFinished.
	if err := m.Cancel(running.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("cancel finished = %v, want ErrFinished", err)
	}
	if err := m.Cancel("j99999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown = %v, want ErrNotFound", err)
	}
}

func TestManagerSubmitInvalid(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Submit(&Spec{}); !errors.Is(err, ErrNoWork) {
		t.Fatalf("Submit(empty) = %v, want ErrNoWork", err)
	}
	if entries, _ := os.ReadDir(m.cfg.Dir); len(entries) != 0 {
		t.Fatalf("invalid submit left %d entries on disk", len(entries))
	}
}

func TestManagerSubmitAfterClose(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := m.Submit(smallRun("", 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestManagerFairness floods one tenant and then submits a single job from a
// late tenant: round-robin must hand the late tenant a slot on the next lap
// rather than draining the flood first, and the per-tenant quota must hold.
func TestManagerFairness(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir(), Workers: 2, TenantSlots: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const flood = 12
	ids := make([]string, flood)
	for i := 0; i < flood; i++ {
		spec := smallRun("flood", uint64(i+1))
		spec.Run.Steps = 50_000
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	late, err := m.Submit(smallRun("late", 99))
	if err != nil {
		t.Fatal(err)
	}

	lateDone := waitFor(t, m, late.ID, terminal)
	var lastDone Status
	for _, id := range ids {
		st := waitFor(t, m, id, terminal)
		if st.State != StateDone {
			t.Fatalf("flood job %s → %s (%s)", id, st.State, st.Error)
		}
		if lastDone.Finished.Before(st.Finished) {
			lastDone = st
		}
	}
	if lateDone.State != StateDone {
		t.Fatalf("late job → %s (%s)", lateDone.State, lateDone.Error)
	}
	if lateDone.Finished.After(lastDone.Finished) {
		t.Fatalf("late tenant starved: finished %v after flood's last %v",
			lateDone.Finished, lastDone.Finished)
	}
	hw := m.QuotaHighWater()
	if hw["flood"] > 1 {
		t.Fatalf("flood tenant exceeded its quota: high water %d > 1", hw["flood"])
	}
	if hw["late"] != 1 {
		t.Fatalf("late tenant high water = %d, want 1", hw["late"])
	}
}

// TestManagerSuspendResume is the crash-resume contract in-process: a
// manager closed mid-sweep requeues the job with its checkpoints, a second
// manager over the same directory finishes it, and the result is
// byte-identical to an uninterrupted execution of the same spec.
func TestManagerSuspendResume(t *testing.T) {
	spec := &Spec{
		Sweep: &sops.SweepSpec{
			Lambdas: []float64{2, 4, 6},
			Gammas:  []float64{2, 4},
			Seeds:   []uint64{1, 2},
			Counts:  []int{8, 8},
			Steps:   60_000,
		},
	}

	// Reference: the same sweep, uninterrupted.
	ref, err := Open(Config{Dir: t.TempDir(), Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	refSt, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	refFinal := waitFor(t, ref, refSt.ID, terminal)
	ref.Close()
	if refFinal.State != StateDone {
		t.Fatalf("reference sweep → %s (%s)", refFinal.State, refFinal.Error)
	}

	// Interrupted: close the manager mid-sweep (some cells done, some not).
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir, Workers: 1, SweepCheckpointSteps: 5_000, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, m1, st.ID, func(s Status) bool {
		return s.State.Terminal() || (s.Sweep != nil && s.Sweep.Done >= 1)
	})
	m1.Close()

	// On disk the job must be queued again (unless it won the race and
	// finished), ready for the next manager.
	if _, rec, err := m1.st.load(st.ID); err != nil {
		t.Fatal(err)
	} else if rec.State != StateQueued && rec.State != StateDone {
		t.Fatalf("suspended job persisted as %s", rec.State)
	}

	m2, err := Open(Config{Dir: dir, Workers: 1, SweepCheckpointSteps: 5_000, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	final := waitFor(t, m2, st.ID, terminal)
	if final.State != StateDone {
		t.Fatalf("resumed sweep → %s (%s)", final.State, final.Error)
	}

	got, err := json.Marshal(final.Result)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(refFinal.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed result differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}

	// The finished job's checkpoint files are gone; its documents remain.
	waitGone(t, filepath.Join(dir, st.ID, "sweep.ckpt"))
}

// TestManagerRunSuspendResume does the same for a single-system run job,
// which resumes from its auto-checkpoint.
func TestManagerRunSuspendResume(t *testing.T) {
	spec := &Spec{Run: &RunJob{
		Options: sops.Options{Counts: []int{8, 8}, Lambda: 4, Gamma: 4, Seed: 3},
		Steps:   300_000,
	}}

	ref, err := Open(Config{Dir: t.TempDir(), Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	refSt, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	refFinal := waitFor(t, ref, refSt.ID, terminal)
	ref.Close()
	if refFinal.State != StateDone {
		t.Fatalf("reference run → %s (%s)", refFinal.State, refFinal.Error)
	}

	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir, Workers: 1, CheckpointEvery: 20_000, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let it reach a checkpoint, then pull the plug.
	waitFor(t, m1, st.ID, func(s Status) bool { return s.State == StateRunning })
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(m1.st.checkpointPath(st.ID)); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	m1.Close()

	m2, err := Open(Config{Dir: dir, Workers: 1, CheckpointEvery: 20_000, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	final := waitFor(t, m2, st.ID, terminal)
	if final.State != StateDone {
		t.Fatalf("resumed run → %s (%s)", final.State, final.Error)
	}

	got, _ := json.Marshal(final.Result)
	want, _ := json.Marshal(refFinal.Result)
	if string(got) != string(want) {
		t.Fatalf("resumed result differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestRestoreRunResumesOwnCheckpoint: a run job's checkpoint written at
// step k restores at step k, also for specs whose restored Params differ
// from their scalar Options — an alignment run that leaves Gamma unset
// (alignment declares no γ, so the restored γ reads 1), an anneal run at
// its default couplings, and a separation run whose Couplings override
// its scalars.
func TestRestoreRunResumesOwnCheckpoint(t *testing.T) {
	specs := map[string]*RunJob{
		"alignment": {Options: sops.Options{Counts: []int{4, 4, 4}, Model: "alignment", Lambda: 4, Seed: 1}, Steps: 50_000},
		"anneal":    {Options: sops.Options{Counts: []int{6, 6}, Model: "anneal", Seed: 2}, Steps: 50_000},
		"separation-couplings": {Options: sops.Options{Counts: []int{6, 6}, Lambda: 4, Gamma: 4,
			Couplings: map[string]float64{"gamma": 2}, Seed: 3}, Steps: 50_000},
	}
	const k = 20_000
	for name, rj := range specs {
		sys, err := sops.New(rj.Options)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sys.RunSteps(k)
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := sys.WriteCheckpoint(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := restoreRun(path, rj); got == nil {
			t.Errorf("%s: checkpoint at step %d discarded; the job restarts from step 0", name, k)
		} else if got.Steps() != k {
			t.Errorf("%s: restored at step %d, want %d", name, got.Steps(), k)
		}
	}
}

// TestManagerModelJobsSuspendResume closes the pluggable-dynamics loop at
// the daemon layer: an annealed run job (whose γ schedule crosses stage
// boundaries mid-checkpoint) and an alignment coupling-axis sweep both
// survive a manager shutdown and finish byte-identical to uninterrupted
// executions — the checkpoint-exact contract is model-generic, not a
// separation special case.
func TestManagerModelJobsSuspendResume(t *testing.T) {
	specs := map[string]*Spec{
		"anneal-run": {Run: &RunJob{
			Options: sops.Options{
				Counts: []int{8, 8}, Model: "anneal", Lambda: 4, Gamma: 16,
				Couplings: map[string]float64{"stages": 3, "stageSteps": 60_000},
				Seed:      5,
			},
			Steps: 200_000,
		}},
		"alignment-sweep": {Sweep: &sops.SweepSpec{
			Model:        "alignment",
			Couplings:    map[string]float64{"lambda": 4, "beta": 2},
			CouplingAxes: map[string][]float64{"alpha": {2, 6}},
			Seeds:        []uint64{1, 2},
			Counts:       []int{4, 4, 4},
			Steps:        40_000,
		}},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			ref, err := Open(Config{Dir: t.TempDir(), Workers: 1, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			refSt, err := ref.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			refFinal := waitFor(t, ref, refSt.ID, terminal)
			ref.Close()
			if refFinal.State != StateDone {
				t.Fatalf("reference job → %s (%s)", refFinal.State, refFinal.Error)
			}

			dir := t.TempDir()
			m1, err := Open(Config{Dir: dir, Workers: 1, CheckpointEvery: 20_000,
				SweepCheckpointSteps: 5_000, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			st, err := m1.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			// Let the job make durable progress, then pull the plug.
			waitFor(t, m1, st.ID, func(s Status) bool { return s.State == StateRunning })
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				if _, err := os.Stat(m1.st.checkpointPath(st.ID)); err == nil {
					break
				}
				if _, err := os.Stat(filepath.Join(dir, st.ID, "sweep.ckpt")); err == nil {
					break
				}
				time.Sleep(time.Millisecond)
			}
			m1.Close()

			m2, err := Open(Config{Dir: dir, Workers: 1, CheckpointEvery: 20_000,
				SweepCheckpointSteps: 5_000, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			final := waitFor(t, m2, st.ID, terminal)
			if final.State != StateDone {
				t.Fatalf("resumed job → %s (%s)", final.State, final.Error)
			}
			got, _ := json.Marshal(final.Result)
			want, _ := json.Marshal(refFinal.Result)
			if string(got) != string(want) {
				t.Fatalf("resumed model job differs from uninterrupted run:\n got %s\nwant %s", got, want)
			}
		})
	}
}
