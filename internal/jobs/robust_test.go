package jobs

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sops"
	"sops/internal/failfs"
)

// logCapture is a threadsafe Config.Logf sink.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
	lc.mu.Unlock()
}

func (lc *logCapture) contains(substr string) bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, l := range lc.lines {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

// corruptFile flips one byte in the middle of path.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenQuarantinesBadJobs: a store holding a truncated spec document, a
// corrupt state document and a stray non-job file must cost exactly the
// two damaged jobs — quarantined, not fatal — while every healthy job is
// served and completes.
func TestOpenQuarantinesBadJobs(t *testing.T) {
	dir := t.TempDir()
	st, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range []uint64{1, 2, 3} {
		id := formatID(uint64(i + 1))
		rec := &record{ID: id, State: StateQueued, Created: time.Now().UTC()}
		if err := st.create(id, smallRun("acme", seed), rec); err != nil {
			t.Fatal(err)
		}
	}
	// Job 2: torn spec document (written once, so no .prev to fall back to).
	specPath := filepath.Join(dir, "j00000002", "spec.json")
	raw, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(specPath, raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	// Job 3: bit rot in the state document (also single-generation here).
	corruptFile(t, filepath.Join(dir, "j00000003", "state.json"))
	// A stray file that is not a job at all.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("ops scratch"), 0o644); err != nil {
		t.Fatal(err)
	}

	logs := new(logCapture)
	m, err := Open(Config{Dir: dir, Logf: logs.logf})
	if err != nil {
		t.Fatalf("one bad job took the daemon down: %v", err)
	}
	defer m.Close()

	if got := m.Health().QuarantinedJobs.Load(); got != 2 {
		t.Fatalf("quarantined_jobs = %d, want 2", got)
	}
	list := m.List()
	if len(list) != 1 || list[0].ID != "j00000001" {
		t.Fatalf("surviving jobs: %+v", list)
	}
	st1 := waitFor(t, m, "j00000001", terminal)
	if st1.State != StateDone {
		t.Fatalf("healthy job: %s (%s)", st1.State, st1.Error)
	}
	for _, id := range []string{"j00000002", "j00000003"} {
		if _, err := os.Stat(filepath.Join(dir, "corrupt", id)); err != nil {
			t.Errorf("%s not preserved in quarantine: %v", id, err)
		}
		if _, err := os.Stat(filepath.Join(dir, id)); err == nil {
			t.Errorf("%s still on the store scan path", id)
		}
	}
	if !logs.contains("notes.txt") {
		t.Error("stray store entry not warned about")
	}
}

// TestStateDocFallsBackToPrev: a corrupt state.json with an intact .prev
// generation recovers silently — no quarantine, the job stays serviceable.
func TestStateDocFallsBackToPrev(t *testing.T) {
	dir := t.TempDir()
	st, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := &record{ID: "j00000001", State: StateQueued, Created: time.Now().UTC()}
	if err := st.create("j00000001", smallRun("acme", 1), rec); err != nil {
		t.Fatal(err)
	}
	rec.State = StateRunning // second generation; rotates .prev
	if err := st.saveState("j00000001", rec); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, filepath.Join(dir, "j00000001", "state.json"))

	m, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.Health().QuarantinedJobs.Load(); got != 0 {
		t.Fatalf("recoverable state doc quarantined the job (%d)", got)
	}
	// The .prev generation says queued; the job simply runs.
	if st := waitFor(t, m, "j00000001", terminal); st.State != StateDone {
		t.Fatalf("job after state recovery: %s (%s)", st.State, st.Error)
	}
}

// TestRetryBackoffThenFailed: a persistently failing execution consumes
// its bounded retries — with the retry counter surfaced — and lands in
// StateFailed with the cause, never requeueing forever.
func TestRetryBackoffThenFailed(t *testing.T) {
	dir := t.TempDir()
	// Every write to this job's chain checkpoint file fails: the run
	// engine surfaces the checkpoint write error and the job fails.
	restore := failfs.Swap(failfs.NewInjector(nil, 0, failfs.Fault{
		Op:    failfs.OpWrite,
		Path:  filepath.Join(dir, "j00000001", "checkpoint"),
		Count: 1 << 30,
		Err:   nil, // EIO
	}))
	defer restore()

	m, err := Open(Config{
		Dir:             dir,
		Workers:         1,
		CheckpointEvery: 500,
		MaxRetries:      1,
		RetryBackoff:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st0, err := m.Submit(smallRun("acme", 1))
	if err != nil {
		t.Fatal(err)
	}
	st := waitFor(t, m, st0.ID, terminal)
	if st.State != StateFailed {
		t.Fatalf("state %s, want failed", st.State)
	}
	if st.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (1 try + 1 retry)", st.Attempts)
	}
	if !strings.Contains(st.Error, "input/output error") {
		t.Fatalf("cause not recorded: %q", st.Error)
	}
	if got := m.Health().JobRetries.Load(); got != 1 {
		t.Fatalf("job_retries = %d, want 1", got)
	}
}

// TestWatchdogKillsStuckJob: a job whose progress heartbeat goes flat is
// killed and requeued once (the hang may have been environmental), then
// poisoned on the second kill.
func TestWatchdogKillsStuckJob(t *testing.T) {
	m, err := Open(Config{
		Dir:             t.TempDir(),
		Workers:         1,
		CheckpointEvery: 50_000_000, // keep the hot loop off the disk
		StuckAfter:      40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Simulate a wedged executor: the heartbeat never advances even though
	// the job is "running".
	m.mu.Lock()
	m.progress = func(*job) uint64 { return 0 }
	m.mu.Unlock()

	spec := smallRun("acme", 1)
	spec.Run.Steps = 1 << 40 // far longer than the test
	st0, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitFor(t, m, st0.ID, terminal)
	if st.State != StatePoisoned {
		t.Fatalf("state %s, want poisoned", st.State)
	}
	if !strings.Contains(st.Error, "watchdog") {
		t.Fatalf("cause not recorded: %q", st.Error)
	}
	if got := m.Health().WatchdogKills.Load(); got != 2 {
		t.Fatalf("watchdog_kills = %d, want 2 (kill+requeue, kill+poison)", got)
	}
	if got := m.Health().QuarantinedJobs.Load(); got != 1 {
		t.Fatalf("quarantined_jobs = %d, want 1", got)
	}
}

// TestSubmitBackpressure: once the queue hits its high-water mark, Submit
// sheds with ErrBacklogged and the HTTP layer answers 503 + Retry-After.
func TestSubmitBackpressure(t *testing.T) {
	m, ts := newTestAPI(t, Config{
		Dir:             t.TempDir(),
		Workers:         1,
		QueueHighWater:  2,
		CheckpointEvery: 50_000_000,
	})
	blocker := smallRun("acme", 1)
	blocker.Run.Steps = 1 << 40
	stB, err := m.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, m, stB.ID, func(st Status) bool { return st.State == StateRunning })
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(smallRun("acme", uint64(i+2))); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}
	if _, err := m.Submit(smallRun("acme", 9)); !errors.Is(err, ErrBacklogged) {
		t.Fatalf("over high-water submit: %v, want ErrBacklogged", err)
	}
	if got := m.Health().ShedRequests.Load(); got != 1 {
		t.Fatalf("shed_requests = %d, want 1", got)
	}

	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{
		"run": {"options": {"counts": [6, 6], "lambda": 4, "gamma": 4, "seed": 3}, "steps": 1000}
	}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After hint")
	}
	if err := m.Cancel(stB.ID); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRequeueLimitPoisons: a job found mid-flight at startup too many
// times is poisoned instead of being requeued forever; one below the limit
// still gets its chance and completes.
func TestCrashRequeueLimitPoisons(t *testing.T) {
	dir := t.TempDir()
	st, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Job 1 has already been through three crashes; the default limit (3)
	// poisons it on the fourth.
	rec1 := &record{ID: "j00000001", State: StateRunning, Created: time.Now().UTC(), Requeues: 3}
	if err := st.create("j00000001", smallRun("acme", 1), rec1); err != nil {
		t.Fatal(err)
	}
	rec2 := &record{ID: "j00000002", State: StateRunning, Created: time.Now().UTC()}
	if err := st.create("j00000002", smallRun("acme", 2), rec2); err != nil {
		t.Fatal(err)
	}

	m, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	st1, err := m.Status("j00000001")
	if err != nil {
		t.Fatal(err)
	}
	if st1.State != StatePoisoned || !strings.Contains(st1.Error, "crash requeues") {
		t.Fatalf("daemon-killer job: %s (%q)", st1.State, st1.Error)
	}
	if got := m.Health().QuarantinedJobs.Load(); got != 1 {
		t.Fatalf("quarantined_jobs = %d, want 1", got)
	}
	st2 := waitFor(t, m, "j00000002", terminal)
	if st2.State != StateDone || st2.Requeues != 1 {
		t.Fatalf("first-crash job: %s, requeues %d", st2.State, st2.Requeues)
	}
}

// TestResumeSurvivesCorruptCheckpoint is the daemon-level crash drill: a
// job suspended mid-run whose current chain checkpoint then rots on disk
// must resume from the .prev generation and finish with exactly the result
// of an uninterrupted run.
func TestResumeSurvivesCorruptCheckpoint(t *testing.T) {
	const steps = 300_000
	opts := sops.Options{Counts: []int{6, 6}, Lambda: 4, Gamma: 4, Seed: 7}
	ref, err := sops.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ref.RunSteps(steps)
	want := ref.Metrics()

	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir, Workers: 1, CheckpointEvery: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	st0, err := m1.Submit(&Spec{Run: &RunJob{Options: opts, Steps: steps}})
	if err != nil {
		t.Fatal(err)
	}
	// Let it make real progress (several checkpoint generations), then
	// suspend as a shutdown would.
	waitFor(t, m1, st0.ID, func(st Status) bool {
		return st.Probe != nil && st.Probe.Steps > 3_000
	})
	m1.Close()

	ckpt := filepath.Join(dir, st0.ID, "checkpoint")
	corruptFile(t, ckpt)

	m2, err := Open(Config{Dir: dir, Workers: 1, CheckpointEvery: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	st := waitFor(t, m2, st0.ID, terminal)
	if st.State != StateDone {
		t.Fatalf("resumed job: %s (%s)", st.State, st.Error)
	}
	if st.Result == nil || st.Result.Snap == nil || *st.Result.Snap != want {
		t.Fatalf("resumed result diverged:\n got %+v\nwant %+v", st.Result, want)
	}
}
