package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sops"
	"sops/internal/seal"
	"sops/internal/telemetry"
)

// Config sizes a Manager.
type Config struct {
	// Dir is the persistent job store directory. Required.
	Dir string
	// Workers caps the jobs executing concurrently across all tenants;
	// values <= 0 mean 4.
	Workers int
	// TenantSlots caps the jobs one tenant may execute concurrently, so a
	// flood from one tenant cannot monopolize the pool; values <= 0 or
	// > Workers mean Workers.
	TenantSlots int
	// CheckpointEvery is the run-job auto-checkpoint cadence in steps;
	// values <= 0 mean 100_000. A kill -9 loses at most this much work
	// per running job.
	CheckpointEvery uint64
	// SweepCheckpointSteps is the in-flight sweep-cell checkpoint cadence
	// in steps; values <= 0 mean CheckpointEvery.
	SweepCheckpointSteps uint64
	// TraceCapacity bounds each run job's live trace ring; values <= 0
	// mean 256 samples.
	TraceCapacity int
	// MaxRetries bounds how many times a job whose execution fails is
	// retried (with exponential backoff) before it lands in StateFailed;
	// 0 means 2, negative values disable retries.
	MaxRetries int
	// RetryBackoff is the delay before a failed job's first retry,
	// doubling on each subsequent attempt; values <= 0 mean 1s.
	RetryBackoff time.Duration
	// RequeueLimit bounds how many times a job found running at startup —
	// a job that was in flight when the daemon crashed — is requeued
	// before it is poisoned as a suspected daemon-killer; 0 means 3,
	// negative values remove the bound.
	RequeueLimit int
	// QueueHighWater caps the queued jobs across all tenants: submits
	// beyond it are shed with ErrBacklogged, which the HTTP layer maps to
	// 503 + Retry-After. Values <= 0 mean unbounded.
	QueueHighWater int
	// StuckAfter arms the stuck-job watchdog: a running job whose
	// progress heartbeat (probe step counter) does not advance for this
	// long is killed with ErrStuck and requeued once; a second kill
	// poisons it. The watchdog polls every StuckAfter/4. 0 disables it.
	StuckAfter time.Duration
	// Logf, if non-nil, receives operational log lines (job lifecycle,
	// store warnings).
	Logf func(format string, args ...any)
}

func (c *Config) workers() int {
	if c.Workers <= 0 {
		return 4
	}
	return c.Workers
}

func (c *Config) tenantSlots() int {
	if c.TenantSlots <= 0 || c.TenantSlots > c.workers() {
		return c.workers()
	}
	return c.TenantSlots
}

func (c *Config) checkpointEvery() uint64 {
	if c.CheckpointEvery == 0 {
		return 100_000
	}
	return c.CheckpointEvery
}

func (c *Config) sweepCheckpointSteps() uint64 {
	if c.SweepCheckpointSteps == 0 {
		return c.checkpointEvery()
	}
	return c.SweepCheckpointSteps
}

func (c *Config) traceCapacity() int {
	if c.TraceCapacity <= 0 {
		return 256
	}
	return c.TraceCapacity
}

func (c *Config) maxRetries() int {
	if c.MaxRetries == 0 {
		return 2
	}
	if c.MaxRetries < 0 {
		return 0
	}
	return c.MaxRetries
}

func (c *Config) retryBackoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return time.Second
	}
	return c.RetryBackoff
}

// requeueLimit returns the crash-requeue bound, or -1 for unbounded.
func (c *Config) requeueLimit() int {
	if c.RequeueLimit == 0 {
		return 3
	}
	if c.RequeueLimit < 0 {
		return -1
	}
	return c.RequeueLimit
}

// watchdogEvery is the watchdog's poll cadence: StuckAfter/4, or 1s when
// that rounds to zero.
func (c *Config) watchdogEvery() time.Duration {
	if d := c.StuckAfter / 4; d > 0 {
		return d
	}
	return time.Second
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// job is the in-memory side of one queued or executing job.
type job struct {
	id     string
	tenant string
	spec   *Spec
	rec    record

	// Live telemetry, allocated when the job starts executing.
	probe    *telemetry.Probe
	recorder *sops.Recorder
	tracker  *telemetry.SweepTracker
	cancel   context.CancelCauseFunc

	// Self-healing bookkeeping.
	notBefore        time.Time // earliest dispatch time (retry backoff)
	lastSteps        uint64    // watchdog: probe reading at the last poll
	lastProgress     time.Time // watchdog: when that reading last advanced
	watchdogRequeued bool      // the one free post-kill requeue is spent
}

// Manager owns the job store and the scheduler: it accepts submissions,
// executes them under the per-tenant quota with round-robin fairness
// across tenants, persists every lifecycle transition, and suspends
// running jobs into their checkpoints on Close. All methods are safe for
// concurrent use.
type Manager struct {
	cfg    Config
	st     *store
	health *telemetry.Health
	// progress reads a job's heartbeat for the watchdog; tests override it
	// to simulate a hung executor.
	progress  func(*job) uint64
	watchStop chan struct{}

	mu        sync.Mutex
	cond      *sync.Cond
	jobs      map[string]*job
	queues    map[string][]*job // queued jobs per tenant, FIFO
	tenants   []string          // round-robin ring, in order of first appearance
	rr        int               // ring position the next dispatch starts from
	running   int
	perTenant map[string]int
	highWater map[string]int // max concurrent observed per tenant (fairness audit)
	nextID    uint64
	closed    bool

	wg sync.WaitGroup // dispatcher + executors
}

// Open loads (or initializes) the job store in cfg.Dir, requeues every job
// a previous manager left queued or running — those resume from their
// checkpoints — and starts the scheduler.
func Open(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("jobs: Config.Dir is required")
	}
	st, err := newStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:       cfg,
		st:        st,
		health:    new(telemetry.Health),
		jobs:      make(map[string]*job),
		queues:    make(map[string][]*job),
		perTenant: make(map[string]int),
		highWater: make(map[string]int),
	}
	m.cond = sync.NewCond(&m.mu)
	m.progress = func(j *job) uint64 {
		if j.probe == nil {
			return 0
		}
		return j.probe.Counters().Steps
	}

	ids, warnings, err := st.loadAll()
	if err != nil {
		return nil, err
	}
	for _, w := range warnings {
		cfg.logf("jobs: %v", w)
	}
	for _, id := range ids {
		spec, rec, err := st.load(id)
		if err != nil {
			// A job whose documents fail integrity verification (and have
			// no recoverable generation) is moved aside wholesale: the
			// daemon keeps serving every healthy job, and the bad one is
			// preserved under <dir>/corrupt/ for forensics.
			if dest := seal.Quarantine(st.dir(id)); dest != "" {
				m.health.QuarantinedJobs.Add(1)
				cfg.logf("jobs: quarantined %s to %s: %v", id, dest, err)
			} else {
				cfg.logf("jobs: skipping %s: %v", id, err)
			}
			continue
		}
		j := &job{id: id, tenant: spec.tenant(), spec: spec, rec: *rec}
		m.jobs[id] = j
		switch {
		case rec.State == StateRunning:
			// The previous process died (or was killed) mid-job. Requeue —
			// the executor resumes from the job's checkpoints — unless the
			// job has now been mid-flight in too many crashes, in which
			// case it is poisoned as the likely cause of them.
			j.rec.Requeues++
			if lim := cfg.requeueLimit(); lim >= 0 && j.rec.Requeues > lim {
				j.rec.State = StatePoisoned
				j.rec.Finished = time.Now().UTC()
				j.rec.Error = fmt.Sprintf("jobs: poisoned after %d crash requeues", lim)
				m.health.QuarantinedJobs.Add(1)
				if err := st.saveState(id, &j.rec); err != nil {
					return nil, err
				}
				st.clearRuntime(id)
				cfg.logf("jobs: poisoned %s after %d crash requeues", id, lim)
				continue
			}
			j.rec.State = StateQueued
			if err := st.saveState(id, &j.rec); err != nil {
				return nil, err
			}
			m.enqueueLocked(j)
			cfg.logf("jobs: requeued interrupted %s (tenant %s, requeue %d)", id, j.tenant, j.rec.Requeues)
		case rec.State == StateQueued:
			m.enqueueLocked(j)
		}
	}
	m.nextID = nextID(ids)

	m.wg.Add(1)
	go m.dispatch()
	if cfg.StuckAfter > 0 {
		m.watchStop = make(chan struct{})
		m.wg.Add(1)
		go m.watchdog()
	}
	return m, nil
}

// Health returns the manager's self-healing counters, for wiring into the
// debug server's status report.
func (m *Manager) Health() *telemetry.Health { return m.health }

// Submit validates, durably records, and enqueues a job, returning its
// status. The job is on disk before Submit returns: a daemon killed
// immediately after acknowledging a submission still runs the job after
// restart.
func (m *Manager) Submit(spec *Spec) (Status, error) {
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Status{}, ErrClosed
	}
	if hw := m.cfg.QueueHighWater; hw > 0 && m.queuedLocked() >= hw {
		m.mu.Unlock()
		m.health.ShedRequests.Add(1)
		return Status{}, fmt.Errorf("%w (%d queued)", ErrBacklogged, hw)
	}
	id := formatID(m.nextID)
	m.nextID++
	m.mu.Unlock()

	j := &job{
		id:     id,
		tenant: spec.tenant(),
		spec:   spec,
		rec:    record{ID: id, State: StateQueued, Created: time.Now().UTC()},
	}
	if err := m.st.create(id, spec, &j.rec); err != nil {
		return Status{}, err
	}

	m.mu.Lock()
	if m.closed {
		// Lost the race with Close: leave the job queued on disk; the next
		// manager over this directory picks it up.
		m.mu.Unlock()
		return Status{}, ErrClosed
	}
	m.jobs[id] = j
	m.enqueueLocked(j)
	st := m.statusLocked(j)
	m.mu.Unlock()
	m.cond.Broadcast()
	return st, nil
}

// Status returns job id's current status.
func (m *Manager) Status(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return m.statusLocked(j), nil
}

// List returns every job's status, in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, m.statusLocked(j))
	}
	// jobs is a map; restore submission order by sortable ID.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].ID < out[k-1].ID; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// Cancel cancels a queued or running job: queued jobs go straight to
// StateCanceled, running jobs are interrupted with the ErrCanceled cause
// and reach StateCanceled when their executor unwinds.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	switch j.rec.State {
	case StateQueued:
		m.removeQueuedLocked(j)
		j.rec.State = StateCanceled
		j.rec.Finished = time.Now().UTC()
		j.rec.Error = ErrCanceled.Error()
		rec := j.rec
		m.mu.Unlock()
		return m.st.saveState(id, &rec)
	case StateRunning:
		cancel := j.cancel
		m.mu.Unlock()
		if cancel != nil {
			cancel(ErrCanceled)
		}
		return nil
	default:
		m.mu.Unlock()
		return fmt.Errorf("%w (%s is %s)", ErrFinished, id, j.rec.State)
	}
}

// QuotaHighWater returns the maximum concurrency each tenant reached, for
// fairness audits and tests.
func (m *Manager) QuotaHighWater() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int, len(m.highWater))
	for t, n := range m.highWater {
		out[t] = n
	}
	return out
}

// Close stops the scheduler, suspends every running job (checkpoint
// flushed, state back to queued on disk) and waits for the executors to
// unwind. Queued jobs stay queued; a manager reopened over the same
// directory resumes everything.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	for _, j := range m.jobs {
		if j.rec.State == StateRunning && j.cancel != nil {
			j.cancel(ErrSuspended)
		}
	}
	watchStop := m.watchStop
	m.mu.Unlock()
	if watchStop != nil {
		close(watchStop)
	}
	m.cond.Broadcast()
	m.wg.Wait()
}

// queuedLocked counts queued jobs across all tenants. Callers hold m.mu.
func (m *Manager) queuedLocked() int {
	n := 0
	for _, q := range m.queues {
		n += len(q)
	}
	return n
}

// enqueueLocked appends j to its tenant's queue, registering the tenant in
// the round-robin ring on first sight. Callers hold m.mu.
func (m *Manager) enqueueLocked(j *job) {
	t := j.tenant
	if _, ok := m.queues[t]; !ok {
		m.tenants = append(m.tenants, t)
	}
	m.queues[t] = append(m.queues[t], j)
}

// removeQueuedLocked deletes j from its tenant's queue.
func (m *Manager) removeQueuedLocked(j *job) {
	q := m.queues[j.tenant]
	for i, cand := range q {
		if cand == j {
			m.queues[j.tenant] = append(q[:i:i], q[i+1:]...)
			return
		}
	}
}

// nextLocked picks the next dispatchable job fairly: starting from the
// round-robin cursor, the first tenant with queued work and spare quota
// wins, and the cursor advances past it — so under contention every tenant
// gets one slot per lap regardless of queue depth. Jobs still inside their
// retry backoff window are passed over. Returns nil when nothing is
// dispatchable (pool full, quotas exhausted, backoff, or no work).
func (m *Manager) nextLocked() *job {
	if m.running >= m.cfg.workers() {
		return nil
	}
	now := time.Now()
	for i := 0; i < len(m.tenants); i++ {
		idx := (m.rr + i) % len(m.tenants)
		t := m.tenants[idx]
		if m.perTenant[t] >= m.cfg.tenantSlots() {
			continue
		}
		for k, cand := range m.queues[t] {
			if cand.notBefore.After(now) {
				continue
			}
			q := m.queues[t]
			m.queues[t] = append(q[:k:k], q[k+1:]...)
			m.rr = (idx + 1) % len(m.tenants)
			return cand
		}
	}
	return nil
}

// nextDelayLocked returns how long until the soonest backing-off job
// becomes dispatchable, and whether any such job exists. Callers hold
// m.mu.
func (m *Manager) nextDelayLocked() (time.Duration, bool) {
	now := time.Now()
	var best time.Duration
	found := false
	for _, q := range m.queues {
		for _, j := range q {
			if !j.notBefore.After(now) {
				continue
			}
			if d := j.notBefore.Sub(now); !found || d < best {
				best, found = d, true
			}
		}
	}
	if found && best < time.Millisecond {
		best = time.Millisecond
	}
	return best, found
}

// dispatch is the scheduler loop: claim the next fair job, mark it
// running, execute it on its own goroutine, repeat.
func (m *Manager) dispatch() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		var j *job
		for {
			if m.closed {
				m.mu.Unlock()
				return
			}
			if j = m.nextLocked(); j != nil {
				break
			}
			// When only backing-off jobs remain, cond.Wait would sleep
			// forever — nothing broadcasts when a backoff expires. Arm a
			// one-shot wakeup for the soonest expiry.
			var timer *time.Timer
			if d, ok := m.nextDelayLocked(); ok {
				timer = time.AfterFunc(d, m.cond.Broadcast)
			}
			m.cond.Wait()
			if timer != nil {
				timer.Stop()
			}
		}
		m.running++
		m.perTenant[j.tenant]++
		if m.perTenant[j.tenant] > m.highWater[j.tenant] {
			m.highWater[j.tenant] = m.perTenant[j.tenant]
		}
		ctx, cancel := context.WithCancelCause(context.Background())
		j.cancel = cancel
		j.rec.State = StateRunning
		j.rec.Started = time.Now().UTC()
		j.rec.Error = ""
		// Every job gets a probe — it is the watchdog's progress heartbeat
		// — run jobs via RunSpec telemetry, sweep jobs shared across cells
		// via SweepSpec.Probe.
		j.probe = telemetry.NewProbe()
		if j.spec.Run != nil {
			j.recorder = sops.NewRecorder(m.cfg.traceCapacity(), j.spec.Run.SampleEvery)
		} else {
			j.tracker = new(telemetry.SweepTracker)
		}
		j.lastSteps = 0
		j.lastProgress = time.Now()
		rec := j.rec
		m.mu.Unlock()

		if err := m.st.saveState(j.id, &rec); err != nil {
			m.finish(j, nil, fmt.Errorf("jobs: persist running state: %w", err))
			continue
		}
		m.wg.Add(1)
		go func(j *job, ctx context.Context) {
			defer m.wg.Done()
			result, err := m.execute(ctx, j)
			// Engines report the bare context error; what finish needs is
			// why the job's context was cancelled (operator cancel vs.
			// shutdown suspend). The sweep engine already surfaces the
			// cause; this maps the run path the same way.
			if err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				err = context.Cause(ctx)
			}
			m.finish(j, result, err)
		}(j, ctx)
	}
}

// execute runs one job to completion (or interruption) and returns its
// result.
func (m *Manager) execute(ctx context.Context, j *job) (*Result, error) {
	if j.spec.Run != nil {
		return m.executeRun(ctx, j)
	}
	return m.executeSweep(ctx, j)
}

// executeRun executes a single-system job, resuming from the job's chain
// checkpoint when there is one.
func (m *Manager) executeRun(ctx context.Context, j *job) (*Result, error) {
	rj := j.spec.Run
	ckpt := m.st.checkpointPath(j.id)
	sys := restoreRun(ckpt, rj)
	if sys == nil {
		var err error
		if sys, err = sops.New(rj.Options); err != nil {
			return nil, err
		}
	}
	sys.SetAutoCheckpoint(ckpt, m.cfg.checkpointEvery())
	var remaining uint64
	if rj.Steps > sys.Steps() {
		remaining = rj.Steps - sys.Steps()
	}
	sample := rj.SampleEvery
	if sample == 0 {
		sample = m.cfg.checkpointEvery()
	}
	_, err := sys.Run(ctx, sops.RunSpec{
		Steps:       remaining,
		SampleEvery: sample,
		Telemetry:   &sops.Telemetry{Probe: j.probe, Recorder: j.recorder},
	})
	if err != nil {
		return nil, err
	}
	snap := sys.Metrics()
	return &Result{Snap: &snap}, nil
}

// restoreRun rebuilds a run job's System from its checkpoint, or returns
// nil when the job should start fresh (no checkpoint that verifies). The
// checkpoint sits in the job's own directory and was written under the
// job's immutable spec, so nothing in it needs checking against the spec.
func restoreRun(path string, rj *RunJob) *sops.System {
	sys, err := sops.RestoreFile(path, rj.Options.Thresholds)
	if err != nil {
		return nil
	}
	return sys
}

// executeSweep executes a sweep job on the public sweep engine with the
// manager's checkpoint wiring. ResumeSweep treats a missing manifest as a
// fresh start, so first execution and post-crash resume are one code path.
func (m *Manager) executeSweep(ctx context.Context, j *job) (*Result, error) {
	spec := *j.spec.Sweep
	spec.CheckpointPath = m.st.sweepPath(j.id)
	spec.CheckpointSteps = m.cfg.sweepCheckpointSteps()
	spec.Tracker = j.tracker
	spec.Probe = j.probe // watchdog heartbeat, shared across cells
	if spec.Workers <= 0 {
		// GOMAXPROCS per sweep would oversubscribe a multi-job daemon;
		// sweeps that want intra-job parallelism say so in the spec.
		spec.Workers = 1
	}
	results, err := sops.ResumeSweep(ctx, spec)
	var sweepErr *sops.SweepError
	if err != nil && !errors.As(err, &sweepErr) {
		return nil, err
	}
	// Per-cell failures don't fail the job: the result carries each cell's
	// outcome, error text included.
	return &Result{Cells: cellOutcomes(results)}, nil
}

// finish persists a job's terminal (or requeued) state and releases its
// scheduler slot. Failed executions are retried with exponential backoff
// up to the configured budget; watchdog kills get one free requeue and
// then poison the job.
func (m *Manager) finish(j *job, result *Result, err error) {
	now := time.Now().UTC()
	m.mu.Lock()
	j.cancel = nil
	requeue := false // re-enqueue on this manager (retry or watchdog)
	switch {
	case err == nil:
		j.rec.State = StateDone
		j.rec.Finished = now
		j.rec.Result = result
		j.rec.Error = ""
	case errors.Is(err, ErrSuspended):
		// Shutdown interrupted the job: back to queued, checkpoints kept;
		// the next manager resumes it.
		j.rec.State = StateQueued
		j.rec.Started = time.Time{}
		j.rec.Error = ""
	case errors.Is(err, ErrCanceled):
		j.rec.State = StateCanceled
		j.rec.Finished = now
		j.rec.Error = ErrCanceled.Error()
	case errors.Is(err, ErrStuck):
		if !j.watchdogRequeued {
			// First kill: the hang may have been environmental (a stalled
			// mount, a noisy neighbour) — requeue once, resuming from the
			// job's checkpoints.
			j.watchdogRequeued = true
			j.rec.State = StateQueued
			j.rec.Started = time.Time{}
			j.rec.Error = err.Error() // visible while requeued
			requeue = true
		} else {
			j.rec.State = StatePoisoned
			j.rec.Finished = now
			j.rec.Error = err.Error()
			m.health.QuarantinedJobs.Add(1)
		}
	default:
		j.rec.Attempts++
		if j.rec.Attempts <= m.cfg.maxRetries() {
			shift := j.rec.Attempts - 1
			if shift > 16 {
				shift = 16
			}
			j.rec.State = StateQueued
			j.rec.Started = time.Time{}
			j.rec.Error = err.Error() // visible while backing off
			j.notBefore = time.Now().Add(m.cfg.retryBackoff() << shift)
			m.health.JobRetries.Add(1)
			requeue = true
		} else {
			j.rec.State = StateFailed
			j.rec.Finished = now
			j.rec.Error = err.Error()
		}
	}
	suspended := j.rec.State == StateQueued && !requeue
	if requeue {
		m.enqueueLocked(j)
	}
	j.probe, j.recorder, j.tracker = nil, nil, nil
	rec := j.rec
	m.running--
	m.perTenant[j.tenant]--
	m.mu.Unlock()
	m.cond.Broadcast()

	if perr := m.st.saveState(j.id, &rec); perr != nil {
		m.cfg.logf("jobs: persist %s: %v", j.id, perr)
	}
	if rec.State.Terminal() {
		m.st.clearRuntime(j.id)
	}
	switch {
	case suspended:
		m.cfg.logf("jobs: suspended %s at checkpoint", j.id)
	case requeue:
		m.cfg.logf("jobs: requeued %s (attempt %d): %s", j.id, rec.Attempts, rec.Error)
	default:
		m.cfg.logf("jobs: %s → %s", j.id, rec.State)
	}
}

// watchdog is the stuck-job monitor: at every poll it compares each
// running job's probe step counter to the previous reading and kills —
// with the ErrStuck cause — any job whose counter has been flat for the
// configured deadline.
func (m *Manager) watchdog() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.watchdogEvery())
	defer ticker.Stop()
	for {
		select {
		case <-m.watchStop:
			return
		case <-ticker.C:
		}
		m.killStuck(time.Now())
	}
}

// killStuck cancels every running job whose heartbeat has been flat for
// longer than the watchdog deadline.
func (m *Manager) killStuck(now time.Time) {
	var kills []context.CancelCauseFunc
	m.mu.Lock()
	for _, j := range m.jobs {
		if j.rec.State != StateRunning || j.cancel == nil {
			continue
		}
		if steps := m.progress(j); steps != j.lastSteps {
			j.lastSteps = steps
			j.lastProgress = now
			continue
		}
		if now.Sub(j.lastProgress) >= m.cfg.StuckAfter {
			kills = append(kills, j.cancel)
			j.lastProgress = now // one kill per deadline, not one per poll
			m.health.WatchdogKills.Add(1)
			m.cfg.logf("jobs: watchdog killing %s: no progress for %s", j.id, m.cfg.StuckAfter)
		}
	}
	m.mu.Unlock()
	for _, cancel := range kills {
		cancel(ErrStuck)
	}
}

// statusLocked assembles a job's external status. Callers hold m.mu.
func (m *Manager) statusLocked(j *job) Status {
	st := Status{
		ID:       j.id,
		Tenant:   j.tenant,
		Name:     j.spec.Name,
		State:    j.rec.State,
		Created:  j.rec.Created,
		Started:  j.rec.Started,
		Finished: j.rec.Finished,
		Error:    j.rec.Error,
		Attempts: j.rec.Attempts,
		Requeues: j.rec.Requeues,
		Result:   j.rec.Result,
	}
	if j.probe != nil {
		ps := j.probe.Status()
		st.Probe = &ps
	}
	if j.tracker != nil {
		sp := j.tracker.Progress()
		st.Sweep = &sp
	}
	if j.recorder != nil {
		for _, s := range j.recorder.Samples() {
			st.Trace = append(st.Trace, TracePoint{
				Steps:  s.Snap.Steps,
				Alpha:  s.Snap.Alpha,
				Seg:    s.Snap.Segregation,
				Phase:  s.Snap.Phase.String(),
				Energy: s.Energy,
			})
		}
	}
	return st
}
