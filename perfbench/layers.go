package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"sops"
	"sops/internal/core"
	"sops/internal/jobs"
	"sops/internal/lattice"
	"sops/internal/metrics"
	"sops/internal/psys"
)

// passInput is what a traced run hands the layer pass: the workload's live
// state at the end of its measured phase and its unit of work in the
// shapes other layers take it.
type passInput struct {
	sys           *sops.System    // live state after the flow
	samples       []sops.Snapshot // snapshots the flow captured
	lambda, gamma float64
	cell          sops.SweepSpec // the unit of work as a sweep; an empty grid means one (λ, γ) cell, two seeds
	run           *jobs.RunJob   // the unit of work as a daemon run job
}

// layerPass completes a traced run. Every layer the workload's flow did
// not call is timed once on the workload's own state and unit of work —
// so each per-layer metric exists on every workload, measured where the
// workload's data would put it — and then every per-layer metric is
// derived from the spans.
func layerPass(e *env, in passInput) error {
	tr := e.tr
	root := tr.begin("layer.pass", 0, 0)
	ctx := context.Background()
	cfg := in.sys.Config()
	e.set("psys.window_cells", float64(cfg.Window().Area()))
	opts := sops.Options{Lambda: in.lambda, Gamma: in.gamma, Seed: mix(e.seed, 8)}
	n := uint64(cfg.N())

	if err := kernelPass(e, cfg, root); err != nil {
		return err
	}
	if !tr.has("core.run") {
		// The serial kernel on this state, from a copy.
		sys, err := sops.NewFromConfig(in.sys.Snapshot(), opts)
		if err != nil {
			return err
		}
		steps := max(20*n, 200_000)
		id := tr.begin("core.run", root, 0)
		_, err = sys.Run(ctx, sops.RunSpec{Steps: steps})
		tr.end(id, steps)
		if err != nil {
			return err
		}
	}
	if !tr.has("core.sharded.run") {
		// The sharded executor on this state, as RunSpec.Workers would run it.
		seed := mix(e.seed, 8, 1)
		for rep := 0; rep < 2; rep++ {
			id := tr.begin("core.sharded.setup", root, 0)
			sh, err := core.NewShardedWithModel(in.sys.Snapshot(), core.Params{Seed: seed}, core.Separation,
				[]float64{in.lambda, in.gamma}, core.ShardedOptions{Workers: e.nproc, Seed: seed})
			tr.end(id, 1)
			if err != nil {
				return err
			}
			steps := max(10*n, 200_000)
			id = tr.begin("core.sharded.run", root, 0)
			_, err = sh.Run(ctx, steps)
			tr.end(id, steps)
			if err != nil {
				return err
			}
			id = tr.begin("core.sharded.fold", root, 0)
			_, err = sh.Snapshot()
			tr.end(id, 1)
			if err != nil {
				return err
			}
		}
	}
	if !tr.has("metrics.capture") {
		for rep := 0; rep < 5; rep++ {
			id := tr.begin("metrics.capture", root, 0)
			in.sys.Metrics()
			tr.end(id, 1)
		}
	}
	if !tr.has("metrics.capture_store") {
		ts := psys.NewTileStoreFrom(cfg)
		meter := metrics.NewMeter(metrics.DefaultThresholds())
		for rep := 0; rep < 5; rep++ {
			id := tr.begin("metrics.capture_store", root, 0)
			meter.CaptureStore(ts, 0)
			tr.end(id, 1)
		}
	}
	if !tr.has("telemetry.offer") {
		// Replay the flow's samples into a recorder and flush it.
		if len(in.samples) == 0 {
			return fmt.Errorf("layer pass: the flow captured no samples")
		}
		rec := sops.NewRecorder(len(in.samples), 0)
		counts := make([]int, cfg.NumColors())
		for i := range counts {
			counts[i] = cfg.ColorCount(psys.Color(i))
		}
		rec.SetDerivation(in.lambda, in.gamma, counts)
		energy := in.sys.Energy()
		id := tr.begin("telemetry.offer", root, 0)
		for _, s := range in.samples {
			rec.Offer(sops.TraceSample{Snap: s, Energy: energy})
		}
		tr.end(id, uint64(len(in.samples)))
		path := filepath.Join(e.dir, "pass.sbt")
		for rep := 0; rep < 3; rep++ {
			id := tr.begin("telemetry.flush", root, 0)
			err := rec.WriteFile(path)
			tr.end(id, uint64(fileSize(path)))
			if err != nil {
				return err
			}
		}
	}
	ckpt := filepath.Join(e.dir, "pass.ckpt")
	if !tr.has("snapbin.encode") {
		var buf bytes.Buffer
		for rep := 0; rep < 5; rep++ {
			if err := checkpointTraced(tr, root, 0, in.sys, &buf, ckpt); err != nil {
				return err
			}
		}
	} else if err := in.sys.WriteCheckpoint(ckpt); err != nil {
		return err
	}
	for rep := 0; rep < 3; rep++ {
		id := tr.begin("sops.restore", root, 0)
		restored, err := sops.RestoreFile(ckpt, nil)
		tr.end(id, 1)
		if e.check(err == nil, "restore pass checkpoint: %v", err) {
			e.check(restored.Config().Equal(cfg), "restored pass checkpoint differs from the live state")
		}
	}
	if !tr.has("runner.cell") {
		if err := runnerPass(e, in, root); err != nil {
			return err
		}
	}
	if !tr.has("jobs.submit") {
		if err := jobsPass(e, in); err != nil {
			return err
		}
	}
	tr.end(root, 0)
	deriveLayerMetrics(e)
	return nil
}

// runnerPass runs the unit of work as a sweep on the sweep engine and
// times each cell from the engine's progress callback.
func runnerPass(e *env, in passInput, parent int) error {
	spec := in.cell
	if len(spec.Lambdas) == 0 {
		spec.Lambdas, spec.Gammas = []float64{in.lambda}, []float64{in.gamma}
		spec.Seeds = []uint64{mix(e.seed, 10, 0), mix(e.seed, 10, 1)}
	}
	spec.Workers = 1
	var mu sync.Mutex
	prev := time.Now()
	spec.Observe = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		e.tr.add("runner.cell", parent, 0, prev, now, 1)
		prev = now
	}
	results, err := sops.Sweep(context.Background(), spec)
	if err != nil {
		return err
	}
	for _, r := range results {
		e.check(r.Err == nil, "runner pass cell (%g, %g): %v", r.Lambda, r.Gamma, r.Err)
	}
	return nil
}

// jobsPass sends the unit of work through a daemon of its own: twice as a
// run job and once as a one-cell sweep job, each followed to completion.
func jobsPass(e *env, in passInput) error {
	d, err := openDaemon(filepath.Join(e.dir, "pass-daemon"), e.nproc)
	if err != nil {
		return err
	}
	defer d.close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		spec := &jobs.Spec{Tenant: "layer-pass", Name: fmt.Sprintf("pass-%d", i)}
		if i < 2 {
			rj := *in.run
			rj.Options.Seed = mix(e.seed, 11, uint64(i))
			spec.Run = &rj
		} else {
			sw := in.cell
			sw.Lambdas, sw.Gammas = []float64{in.lambda}, []float64{in.gamma}
			sw.Seed = mix(e.seed, 11, 2)
			spec.Sweep = &sw
		}
		o := d.do(ctx, spec, e.tr, 1<<30|i)
		e.check(o.err == nil, "layer pass job %d: %v", i, o.err)
	}
	return nil
}

type proposal struct {
	l   lattice.Point
	dir lattice.Direction
}

// Sinks keep the compiler from discarding the timed calls' results.
var (
	sinkGather psys.PairGather
	sinkInt    int
)

// kernelPass times batches of the exported psys calls that make up one
// chain step — GatherPair, the MoveOK validity probe, the Metropolis
// exponents, and ApplyMove/ApplySwap applied and reverted — over a stream
// of uniformly drawn proposals on a copy of cfg, plus the tiled store's
// GatherPair over the same stream.
func kernelPass(e *env, cfg *psys.Config, parent int) error {
	const batch, batches = 4096, 64
	tr := e.tr
	work := cfg.Clone()
	pts := work.Points()
	ts := psys.NewTileStoreFrom(cfg)
	r := mix(e.seed, 12)
	props := make([]proposal, batch)
	gs := make([]psys.PairGather, batch)
	var vac, occ, valid []int
	for b := 0; b < batches; b++ {
		for i := range props {
			r = splitmix(r)
			props[i] = proposal{pts[r%uint64(len(pts))], lattice.Direction((r >> 40) % lattice.NumDirections)}
		}
		id := tr.begin("psys.gather", parent, 0)
		for i, p := range props {
			gs[i] = work.GatherPair(p.l, p.dir)
		}
		tr.end(id, batch)

		id = tr.begin("psys.tile_gather", parent, 0)
		for _, p := range props {
			sinkGather = ts.GatherPair(p.l, p.dir)
		}
		tr.end(id, batch)

		vac, occ = vac[:0], occ[:0]
		for i := range gs {
			if _, o := gs[i].LpColor(); o {
				occ = append(occ, i)
			} else {
				vac = append(vac, i)
			}
		}
		valid = valid[:0]
		id = tr.begin("psys.validity", parent, 0)
		for _, i := range vac {
			if psys.MoveOK(gs[i].Dir(), gs[i].Occ()) {
				valid = append(valid, i)
			}
		}
		tr.end(id, uint64(len(vac)))

		acc := 0
		id = tr.begin("psys.exponents", parent, 0)
		for _, i := range valid {
			dl, dg := gs[i].MoveExponents()
			acc += dl + dg
		}
		for _, i := range occ {
			acc += gs[i].SwapExponent()
		}
		tr.end(id, uint64(len(valid)+len(occ)))
		sinkInt += acc

		applied := 0
		id = tr.begin("psys.apply", parent, 0)
		for _, i := range valid {
			l, lp := props[i].l, props[i].l.Neighbor(props[i].dir)
			if err := work.ApplyMove(l, lp); err != nil {
				return fmt.Errorf("kernel pass: %w", err)
			}
			if err := work.ApplyMove(lp, l); err != nil {
				return fmt.Errorf("kernel pass: %w", err)
			}
			applied += 2
		}
		for _, i := range occ {
			cl, _ := gs[i].LColor()
			clp, _ := gs[i].LpColor()
			if cl == clp {
				continue
			}
			l, lp := props[i].l, props[i].l.Neighbor(props[i].dir)
			if err := work.ApplySwap(l, lp); err != nil {
				return fmt.Errorf("kernel pass: %w", err)
			}
			if err := work.ApplySwap(l, lp); err != nil {
				return fmt.Errorf("kernel pass: %w", err)
			}
			applied += 2
		}
		tr.end(id, uint64(applied))
	}
	e.check(work.Equal(cfg), "kernel pass: applying and reverting left the configuration changed")
	return nil
}

// deriveLayerMetrics turns the run's spans into the per-layer metrics.
func deriveLayerMetrics(e *env) {
	tr := e.tr
	perItem := func(metric, span string, scale float64) {
		if v, ok := tr.perItem(span); ok {
			e.set(metric, v*scale)
		}
	}
	meanDur := func(metric, span string, scale float64) {
		if v, ok := tr.meanDur(span); ok {
			e.set(metric, v*scale)
		}
	}
	const ns, ms, s = 1, 1e-6, 1e-9
	perItem("core.step_ns", "core.run", ns)
	perItem("core.sharded.step_ns", "core.sharded.run", ns)
	meanDur("core.sharded.setup_ms", "core.sharded.setup", ms)
	meanDur("core.sharded.fold_ms", "core.sharded.fold", ms)
	perItem("psys.gather_ns", "psys.gather", ns)
	perItem("psys.validity_ns", "psys.validity", ns)
	perItem("psys.exponents_ns", "psys.exponents", ns)
	perItem("psys.apply_ns", "psys.apply", ns)
	perItem("psys.tile_gather_ns", "psys.tile_gather", ns)
	meanDur("metrics.capture_ms", "metrics.capture", ms)
	meanDur("metrics.capture_store_ms", "metrics.capture_store", ms)
	perItem("telemetry.offer_ns", "telemetry.offer", ns)
	meanDur("telemetry.flush_ms", "telemetry.flush", ms)
	meanDur("snapbin.encode_ms", "snapbin.encode", ms)
	meanDur("seal.write_ms", "seal.write", ms)
	meanDur("sops.restore_ms", "sops.restore", ms)
	meanDur("runner.cell_s", "runner.cell", s)
	meanDur("jobs.submit_ms", "jobs.submit", ms)
	meanDur("jobs.queue_wait_ms", "jobs.queue_wait", ms)
	meanDur("jobs.run_ms.run", "jobs.run.run", ms)
	meanDur("jobs.run_ms.sweep", "jobs.run.sweep", ms)
	meanDur("jobs.follow_lag_ms", "jobs.follow_lag", ms)
	if v, ok := tr.meanCount("telemetry.flush"); ok {
		e.set("telemetry.trace_bytes", v)
	}
	if v, ok := tr.meanCount("snapbin.encode"); ok {
		e.set("snapbin.checkpoint_bytes", v)
	}

	// The rest of a step — rng draws, the acceptance draw, dispatch and
	// bookkeeping — is what the step costs beyond its timed psys parts,
	// each weighted by how often a step calls it. Derived, not measured.
	step, okStep := tr.perItem("core.run")
	apply, okApply := tr.perItem("psys.apply")
	proposals := tr.totalCount("psys.gather")
	if okStep && okApply && proposals > 0 {
		parts := float64(tr.totalDur("psys.gather")+tr.totalDur("psys.validity")+tr.totalDur("psys.exponents")) / float64(proposals)
		e.set("core.step_other_ns", step-parts-apply*e.values["core.acceptance"])
	}
}
