package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sops"
	"sops/internal/jobs"
)

// The sopsd workload: a closed loop of nproc clients, one tenant each,
// against the job daemon's HTTP API (jobs.Manager with Workers = nproc and
// default durability, behind jobs.NewServer on an httptest server). Each
// client submits three run jobs for every sweep job and follows each job
// to a terminal state, polling every followEvery, before submitting the
// next. Job specs cycle through fixed pools derived from the seed, so
// every result can be checked against the same spec run in-process.
const (
	runN          = 100
	runSteps      = 300_000
	runSample     = 100_000
	sweepN        = 60
	sweepSteps    = 300_000
	runPool       = 8
	sweepPool     = 4
	followEvery   = 20 * time.Millisecond
	sweepEveryKth = 4 // every 4th job of a client is a sweep
)

// Figure 3 corner grid: expanded and compressed × integrated and separated.
var (
	sweepLambdas = []float64{0.25, 4}
	sweepGammas  = []float64{1, 6}
)

func runSpecOf(e *env, k int) *jobs.RunJob {
	opts := sops.Options{Counts: sops.Bichromatic(runN), Lambda: 4, Gamma: 4, Seed: mix(e.seed, 6, uint64(k))}
	return runJobOf(opts, runSteps, runSample)
}

func runJobOf(opts sops.Options, steps, sample uint64) *jobs.RunJob {
	return &jobs.RunJob{Options: opts, Steps: steps, SampleEvery: sample}
}

func sweepSpecOf(e *env, k int) *sops.SweepSpec {
	return &sops.SweepSpec{
		Lambdas: sweepLambdas, Gammas: sweepGammas, Seed: mix(e.seed, 7, uint64(k)),
		Counts: sops.Bichromatic(sweepN), Layout: sops.LayoutLine, Steps: sweepSteps,
	}
}

// daemon is an in-process sopsd: a Manager over a scratch directory,
// served over HTTP on a loopback test server.
type daemon struct {
	m      *jobs.Manager
	srv    *httptest.Server
	client *http.Client
}

func openDaemon(dir string, workers int) (*daemon, error) {
	m, err := jobs.Open(jobs.Config{Dir: dir, Workers: workers})
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(jobs.NewServer(m).Handler())
	return &daemon{m: m, srv: srv, client: srv.Client()}, nil
}

func (d *daemon) close() {
	d.srv.Close()
	d.m.Close()
}

// jobOutcome is what a client learned about one job: its final status
// document and when the client saw it.
type jobOutcome struct {
	kind   string // "run" or "sweep"
	seen   time.Time
	status jobs.Status
	err    error // transport failure, non-2xx response, or a state other than done
}

// latency is the daemon-side submit-to-done time, finished − created.
func (o *jobOutcome) latency() time.Duration { return o.status.Finished.Sub(o.status.Created) }

// do submits spec and follows it to a terminal state. With a tracer it
// records the job's spans: the client's submit and follow, and the
// daemon-side queue wait, run and follow lag from the status timestamps.
func (d *daemon) do(ctx context.Context, spec *jobs.Spec, tr *tracer, job int) jobOutcome {
	o := jobOutcome{kind: "run"}
	if spec.Sweep != nil {
		o.kind = "sweep"
	}
	body, err := json.Marshal(spec)
	if err != nil {
		o.err = err
		return o
	}
	root := tr.begin("sopsd.job", 0, job)
	defer tr.end(root, 1)
	id := tr.begin("jobs.submit", root, job)
	var st jobs.Status
	code, err := d.call(ctx, http.MethodPost, "/v1/jobs", body, &st)
	tr.end(id, 1)
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("submit: HTTP %d", code)
	}
	if err != nil {
		o.err = err
		return o
	}
	follow := tr.begin("jobs.follow", root, job)
	for !st.State.Terminal() {
		time.Sleep(followEvery)
		code, err := d.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil, &st)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %s: HTTP %d", st.ID, code)
		}
		if err != nil {
			tr.end(follow, 0)
			o.err = err
			return o
		}
	}
	o.seen = time.Now()
	tr.end(follow, 1)
	o.status = st
	tr.add("jobs.queue_wait", follow, job, st.Created, st.Started, 1)
	tr.add("jobs.run."+o.kind, follow, job, st.Started, st.Finished, 1)
	tr.add("jobs.follow_lag", follow, job, st.Finished, o.seen, 1)
	if st.State != jobs.StateDone {
		o.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return o
}

// call makes one API request and decodes a JSON reply into out.
func (d *daemon) call(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.srv.URL+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// reference is a job spec's result computed in-process, with the exact
// proposal statistics the daemon's copy must also have produced.
type reference struct {
	snaps    []sops.Snapshot // one per run job, one per cell for sweeps
	accepted uint64
	steps    uint64
}

// runReference runs a run job's spec in-process exactly as the daemon's
// executor does, minus checkpoints and telemetry (neither touches the
// trajectory).
func runReference(ctx context.Context, rj *jobs.RunJob, tr *tracer, parent int) (*sops.System, reference, []sops.Snapshot, error) {
	sys, err := sops.New(rj.Options)
	if err != nil {
		return nil, reference{}, nil, err
	}
	var samples []sops.Snapshot
	id := tr.begin("core.run", parent, 0)
	_, err = sys.Run(ctx, sops.RunSpec{Steps: rj.Steps, SampleEvery: rj.SampleEvery,
		Observer: func(s sops.Snapshot) bool { samples = append(samples, s); return true }})
	tr.end(id, rj.Steps)
	if err != nil {
		return nil, reference{}, nil, err
	}
	st := sys.Stats()
	return sys, reference{snaps: []sops.Snapshot{sys.Metrics()}, accepted: st.Moves + st.Swaps, steps: st.Steps}, samples, nil
}

// sweepReference runs every cell of a sweep spec in-process as the sweep
// engine does: one System per (λ, γ) cell from the cell's seed.
func sweepReference(ctx context.Context, spec *sops.SweepSpec) (reference, error) {
	var ref reference
	for _, l := range spec.Lambdas {
		for _, g := range spec.Gammas {
			sys, err := sops.New(sops.Options{Counts: spec.Counts, Layout: spec.Layout, Lambda: l, Gamma: g, Seed: spec.Seed})
			if err != nil {
				return ref, err
			}
			if _, err := sys.Run(ctx, sops.RunSpec{Steps: spec.Steps}); err != nil {
				return ref, err
			}
			st := sys.Stats()
			ref.snaps = append(ref.snaps, sys.Metrics())
			ref.accepted += st.Moves + st.Swaps
			ref.steps += st.Steps
		}
	}
	return ref, nil
}

// sameSnap compares two snapshots through their wire form, the form the
// daemon returned its copy in.
func sameSnap(a, b *sops.Snapshot) bool {
	if a == nil || b == nil {
		return false
	}
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

type sopsdJob struct {
	client, k int
	pool      int // index into the run or sweep pool
	out       jobOutcome
}

func runSopsd(e *env) error {
	ctx := context.Background()
	n := 0
	setup, err := newSetupTimer(false, func() (func(), error) {
		n++
		dir := filepath.Join(e.dir, fmt.Sprintf("setup-%d", n))
		d, err := openDaemon(dir, e.nproc)
		if err != nil {
			return nil, err
		}
		return func() { d.close(); os.RemoveAll(dir) }, nil
	})
	if err != nil {
		return err
	}
	d, err := openDaemon(filepath.Join(e.dir, "daemon"), e.nproc)
	if err != nil {
		return err
	}
	defer d.close()

	var mu sync.Mutex
	var done []sopsdJob
	var tracedLat, plainLat []float64
	start, err := e.runClients(e.nproc, blockSize, setup, func(c, k int) error {
		spec := &jobs.Spec{Tenant: fmt.Sprintf("client-%d", c), Name: fmt.Sprintf("c%d-k%d", c, k)}
		j := sopsdJob{client: c, k: k}
		if k%sweepEveryKth == sweepEveryKth-1 {
			j.pool = (c + k) % sweepPool
			spec.Sweep = sweepSpecOf(e, j.pool)
		} else {
			j.pool = (c + k) % runPool
			spec.Run = runSpecOf(e, j.pool)
		}
		// Traced and plain jobs alternate in blocks of four, so each block
		// carries the same three-runs-to-one-sweep mix.
		traced := e.tr != nil && k%8 < 4
		var tr *tracer
		if traced {
			tr = e.tr
		}
		t0 := time.Now()
		j.out = d.do(ctx, spec, tr, c<<20|k)
		lat := time.Since(t0).Seconds()
		mu.Lock()
		defer mu.Unlock()
		done = append(done, j)
		if traced {
			tracedLat = append(tracedLat, lat)
		} else {
			plainLat = append(plainLat, lat)
		}
		return nil
	})
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()

	// Check every job against its spec run in-process.
	pass := e.tr.begin("sopsd.references", 0, 0)
	runRefs := make(map[int]reference)
	sweepRefs := make(map[int]reference)
	var refSys *sops.System
	var refSamples []sops.Snapshot
	var refStats sops.Stats
	for _, j := range done {
		if j.out.kind == "run" {
			if _, ok := runRefs[j.pool]; !ok {
				sys, ref, samples, err := runReference(ctx, runSpecOf(e, j.pool), e.tr, pass)
				if err != nil {
					return err
				}
				runRefs[j.pool] = ref
				st := sys.Stats()
				refStats.Steps += st.Steps
				refStats.Moves += st.Moves
				refStats.Swaps += st.Swaps
				refSys, refSamples = sys, samples
			}
		} else if _, ok := sweepRefs[j.pool]; !ok {
			ref, err := sweepReference(ctx, sweepSpecOf(e, j.pool))
			if err != nil {
				return err
			}
			sweepRefs[j.pool] = ref
		}
	}
	var units []unit
	for _, j := range done {
		o := &j.out
		name := fmt.Sprintf("job c%d-k%d (%s)", j.client, j.k, o.kind)
		if !e.check(o.err == nil, "%s: %v", name, o.err) {
			continue
		}
		var ref reference
		var got []*sops.Snapshot
		if o.kind == "run" {
			ref = runRefs[j.pool]
			if o.status.Result != nil {
				got = append(got, o.status.Result.Snap)
			}
		} else {
			ref = sweepRefs[j.pool]
			if o.status.Result != nil {
				for i := range o.status.Result.Cells {
					got = append(got, o.status.Result.Cells[i].Snap)
				}
			}
		}
		ok := len(got) == len(ref.snaps)
		for i := 0; ok && i < len(got); i++ {
			ok = sameSnap(got[i], &ref.snaps[i])
		}
		if !e.check(ok, "%s: result differs from the same spec run in-process", name) {
			continue
		}
		u := unit{end: o.status.Finished, latency: o.latency(), proposals: float64(ref.steps), accepted: float64(ref.accepted)}
		if o.kind == "sweep" {
			u.cells = float64(len(ref.snaps))
		}
		units = append(units, u)
	}
	e.tr.end(pass, 0)

	if err := e.setEndToEnd(start, units); err != nil {
		return err
	}
	e.note("job follow cadence: %s; clients: %d; daemon workers: %d", followEvery, e.nproc, e.nproc)
	if e.tr == nil {
		return nil
	}
	e.set("core.acceptance", float64(refStats.Moves+refStats.Swaps)/float64(refStats.Steps))
	e.set("core.swap_frac", float64(refStats.Swaps)/float64(refStats.Moves+refStats.Swaps))
	setTraceOverhead(e, wall, float64(len(done)), tracedLat, plainLat)
	sweep := sweepSpecOf(e, 0)
	return layerPass(e, passInput{
		sys: refSys, samples: refSamples, lambda: 4, gamma: 4,
		cell: *sweep,
		run:  runSpecOf(e, 0),
	})
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
