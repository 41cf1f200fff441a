package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"sops"
	"sops/internal/seal"
)

// The fig2 workload: back-to-back Figure 2 trajectories — n = 100, two
// colors, the line layout, λ = γ = 4 — sampled at the paper's Figure 2
// iteration counts scaled by 1/20 (0; 50,000; 1,050,000; 17,050,000;
// 68,250,000 → the points below), with a Probe and a Recorder flushed as
// a binary .sbt trace. nproc clients each run their own trajectories.
const (
	fig2N      = 100
	fig2Lambda = 4
	fig2Gamma  = 4
)

var fig2Points = []uint64{2_500, 52_500, 852_500, 3_412_500}

var fig2Steps = fig2Points[len(fig2Points)-1]

func fig2Options(seed uint64) sops.Options {
	return sops.Options{
		Counts: sops.Bichromatic(fig2N), Layout: sops.LayoutLine,
		Lambda: fig2Lambda, Gamma: fig2Gamma, Seed: seed,
	}
}

// fig2Seed is the seed of client c's i-th trajectory.
func fig2Seed(e *env, c, i int) uint64 { return mix(e.seed, 2, uint64(c), uint64(i)) }

// fingerprint is the exact outcome of one unit of work on a serial
// workload: it must repeat whenever the unit is replayed.
type fingerprint struct {
	moves, swaps, rejected uint64
	windowCells            int
}

func fingerprintOf(sys *sops.System, before sops.Stats) fingerprint {
	st := sys.Stats()
	return fingerprint{
		moves: st.Moves - before.Moves, swaps: st.Swaps - before.Swaps, rejected: st.Rejected - before.Rejected,
		windowCells: sys.Config().Window().Area(),
	}
}

// fig2Trajectory runs one trajectory the way a library user does: one
// System.Run per Figure 2 sample point with an Observer, a Probe and a
// Recorder attached, then the trace flush.
func fig2Trajectory(ctx context.Context, seed uint64, tracePath string) (*sops.System, *sops.Probe, []sops.Snapshot, error) {
	sys, probe, rec, err := newFig2(seed)
	if err != nil {
		return nil, nil, nil, err
	}
	var samples []sops.Snapshot
	tel := &sops.Telemetry{Probe: probe, Recorder: rec}
	observe := func(s sops.Snapshot) bool { samples = append(samples, s); return true }
	for _, pt := range fig2Points {
		if _, err := sys.Run(ctx, sops.RunSpec{Steps: pt - sys.Steps(), Observer: observe, Telemetry: tel}); err != nil {
			return nil, nil, nil, err
		}
	}
	if err := rec.WriteFile(tracePath); err != nil {
		return nil, nil, nil, err
	}
	return sys, probe, samples, nil
}

// fig2Traced is fig2Trajectory rebuilt from the public calls System.Run
// makes, at the same cadence, with a span around each.
func fig2Traced(ctx context.Context, tr *tracer, job int, seed uint64, tracePath string) (*sops.System, *sops.Probe, []sops.Snapshot, error) {
	root := tr.begin("fig2.trajectory", 0, job)
	defer tr.end(root, fig2Steps)
	id := tr.begin("sops.new", root, job)
	sys, probe, rec, err := newFig2(seed)
	tr.end(id, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	rec.SetDerivation(fig2Lambda, fig2Gamma, sops.Bichromatic(fig2N))
	var samples []sops.Snapshot
	tel := &sops.Telemetry{Probe: probe}
	for _, pt := range fig2Points {
		steps := pt - sys.Steps()
		id := tr.begin("core.run", root, job)
		_, err := sys.Run(ctx, sops.RunSpec{Steps: steps, Telemetry: tel})
		tr.end(id, steps)
		if err != nil {
			return nil, nil, nil, err
		}
		id = tr.begin("metrics.capture", root, job)
		snap := sys.Metrics()
		tr.end(id, 1)
		sample := sops.TraceSample{Snap: snap, Energy: sys.Energy()}
		id = tr.begin("telemetry.offer", root, job)
		rec.Offer(sample)
		tr.end(id, 1)
		samples = append(samples, snap)
	}
	id = tr.begin("telemetry.flush", root, job)
	err = rec.WriteFile(tracePath)
	tr.end(id, uint64(fileSize(tracePath)))
	if err != nil {
		return nil, nil, nil, err
	}
	return sys, probe, samples, nil
}

func newFig2(seed uint64) (*sops.System, *sops.Probe, *sops.Recorder, error) {
	sys, err := sops.New(fig2Options(seed))
	if err != nil {
		return nil, nil, nil, err
	}
	return sys, sops.NewProbe(), sops.NewRecorder(len(fig2Points), 0), nil
}

// checkFig2 checks one finished trajectory.
func checkFig2(e *env, seed uint64, sys *sops.System, probe *sops.Probe, samples []sops.Snapshot) {
	st := sys.Stats()
	e.check(sys.Steps() == fig2Steps, "fig2 seed %d: %d steps, want %d", seed, sys.Steps(), fig2Steps)
	e.check(sys.CheckInvariants() == nil, "fig2 seed %d: invariants: %v", seed, sys.CheckInvariants())
	want := sops.Bichromatic(fig2N)
	cfg := sys.Config()
	e.check(cfg.ColorCount(0) == want[0] && cfg.ColorCount(1) == want[1],
		"fig2 seed %d: color counts %d/%d, want %v", seed, cfg.ColorCount(0), cfg.ColorCount(1), want)
	pc := probe.Counters()
	e.check(pc.Steps == st.Steps, "fig2 seed %d: probe counted %d steps, stats %d", seed, pc.Steps, st.Steps)
	if pc.Moves != st.Moves || pc.Swaps != st.Swaps || pc.Rejected != st.Rejected {
		// Known library issue, reported rather than failed: Chain.FlushProbe
		// skips the publish when the step count has not moved since the
		// last one, so when a run's last step itself triggered a batch
		// publish, that step's outcome never reaches the probe.
		e.known("probe outcome drift", "fig2 seed %d: probe %+v, stats %+v", seed, pc, st)
	}
	if !e.check(len(samples) == len(fig2Points), "fig2 seed %d: %d samples, want %d", seed, len(samples), len(fig2Points)) {
		return
	}
	// At 1/20 of the paper's iteration counts the color classes have
	// separated, but about a fifth of trajectories are still above the
	// α = 3 compression threshold: the check is separation plus a
	// perimeter that has fallen since the first sample point.
	first, last := samples[0], samples[len(samples)-1]
	e.check((last.Phase == sops.CompressedSeparated || last.Phase == sops.ExpandedSeparated) && last.Alpha < first.Alpha,
		"fig2 seed %d: ends %s with α %.3f (first sample α %.3f), want separated and compressing", seed, last.Phase, last.Alpha, first.Alpha)
	if last.Phase == sops.CompressedSeparated {
		e.known("fig2 trajectories ending compressed-separated", "")
	}
}

func runFig2(e *env) error {
	ctx := context.Background()
	setup, err := newSetupTimer(true, func() (func(), error) {
		_, _, _, err := newFig2(mix(e.seed, 1))
		return nil, err
	})
	if err != nil {
		return err
	}

	var mu sync.Mutex
	var units []unit
	var steps, accepted, swaps uint64
	var tracedLat, plainLat []float64
	var first fingerprint
	var last *sops.System
	var lastSamples []sops.Snapshot
	start, err := e.runClients(e.nproc, blockSize, setup, func(c, i int) error {
		seed := fig2Seed(e, c, i)
		path := filepath.Join(e.dir, fmt.Sprintf("fig2-%d.sbt", c))
		traced := e.tr != nil && i%2 == 0
		t0 := time.Now()
		var sys *sops.System
		var probe *sops.Probe
		var samples []sops.Snapshot
		var err error
		if traced {
			sys, probe, samples, err = fig2Traced(ctx, e.tr, c<<20|i, seed, path)
		} else {
			sys, probe, samples, err = fig2Trajectory(ctx, seed, path)
		}
		if err != nil {
			return err
		}
		end := time.Now()
		checkFig2(e, seed, sys, probe, samples)
		st := sys.Stats()
		mu.Lock()
		defer mu.Unlock()
		units = append(units, unit{end: end, latency: end.Sub(t0), proposals: float64(st.Steps),
			accepted: float64(st.Moves + st.Swaps), cells: 1})
		steps += st.Steps
		swaps += st.Swaps
		accepted += st.Moves + st.Swaps
		if traced {
			tracedLat = append(tracedLat, end.Sub(t0).Seconds())
		} else {
			plainLat = append(plainLat, end.Sub(t0).Seconds())
		}
		if c == 0 && i == 0 {
			first = fingerprintOf(sys, sops.Stats{})
		}
		last, lastSamples = sys, samples
		return nil
	})
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()

	// Replay the first trajectory: a serial run's exact counts must repeat.
	sys, _, _, err := fig2Trajectory(ctx, fig2Seed(e, 0, 0), filepath.Join(e.dir, "replay.sbt"))
	if err != nil {
		return err
	}
	again := fingerprintOf(sys, sops.Stats{})
	e.check(again == first, "fig2 nondeterminism: first trajectory %+v, replay %+v", first, again)
	e.note("determinism fingerprint (first trajectory): moves=%d swaps=%d rejected=%d window_cells=%d",
		first.moves, first.swaps, first.rejected, first.windowCells)

	if err := e.setEndToEnd(start, units); err != nil {
		return err
	}
	if e.tr == nil {
		return nil
	}
	e.set("core.acceptance", float64(accepted)/float64(steps))
	e.set("core.swap_frac", float64(swaps)/float64(accepted))
	setTraceOverhead(e, wall, float64(len(units)), tracedLat, plainLat)
	return layerPass(e, passInput{
		sys: last, samples: lastSamples, lambda: fig2Lambda, gamma: fig2Gamma,
		cell: sops.SweepSpec{Counts: sops.Bichromatic(fig2N), Layout: sops.LayoutLine, Steps: fig2Steps},
		run:  runJobOf(fig2Options(mix(e.seed, 5)), fig2Steps, fig2Steps/4),
	})
}

// The large workloads: n = 10⁵, two colors, the spiral layout, λ = γ = 4,
// run as back-to-back segments of one System. Each segment is one
// System.Run of segSteps proposals sampling every segSample steps, with
// auto-checkpointing to a scratch file at the same cadence. large-serial
// runs the serial chain, large-sharded RunSpec.Workers = nproc.
const (
	largeN    = 100_000
	segSteps  = 1_000_000
	segSample = 250_000
)

func largeOptions(seed uint64) sops.Options {
	return sops.Options{Counts: sops.Bichromatic(largeN), Layout: sops.LayoutSpiral, Lambda: 4, Gamma: 4, Seed: seed}
}

func runLarge(e *env, workers int) error {
	ctx := context.Background()
	opts := largeOptions(mix(e.seed, 3))
	setup, err := newSetupTimer(false, func() (func(), error) {
		_, err := sops.New(opts)
		return nil, err
	})
	if err != nil {
		return err
	}
	sys, err := sops.New(opts)
	if err != nil {
		return err
	}
	ckpt := filepath.Join(e.dir, "large.ckpt")
	sys.SetAutoCheckpoint(ckpt, segSample)

	// The unit of work is one sample interval: the time from one sample
	// to the next as the caller sees it, including the checkpoint written
	// with it — and, on the sharded path, the fold and executor set-up
	// that fall between segments.
	var units []unit
	var prevMark time.Time
	var samples []sops.Snapshot
	observe := func(s sops.Snapshot) {
		now := time.Now()
		units = append(units, unit{end: now, latency: now.Sub(prevMark), proposals: segSample, cells: 1})
		prevMark = now
		samples = append(samples, s)
	}
	var steps, accepted, swaps uint64
	var tracedLat, plainLat []float64
	var first fingerprint
	start, err := e.runClients(1, blockSize/(segSteps/segSample), setup, func(_, i int) error {
		before := sys.Stats()
		traced := e.tr != nil && i%2 == 0
		t0 := time.Now()
		if i == 0 {
			prevMark = t0
		}
		pending := len(units)
		var n uint64
		var err error
		if traced && workers <= 1 {
			n, err = serialSegmentTraced(ctx, e.tr, i, sys, ckpt, observe)
		} else {
			// A traced sharded segment is the plain call inside one span: its
			// layers are timed by the layer pass on the post-fold state.
			var id int
			if traced {
				id = e.tr.begin("large.segment", 0, i)
			}
			n, err = sys.Run(ctx, sops.RunSpec{Steps: segSteps, SampleEvery: segSample, Workers: workers,
				Observer: func(s sops.Snapshot) bool { observe(s); return true }})
			e.tr.end(id, n)
		}
		if err != nil {
			return err
		}
		after := sys.Stats()
		st := sops.Stats{Steps: after.Steps - before.Steps, Moves: after.Moves - before.Moves,
			Swaps: after.Swaps - before.Swaps, Rejected: after.Rejected - before.Rejected}
		e.check(n == segSteps, "segment %d ran %d steps, want %d", i, n, segSteps)
		d := time.Since(t0).Seconds()
		fired := len(units) - pending
		e.check(fired == segSteps/segSample, "segment %d sampled %d times, want %d", i, fired, segSteps/segSample)
		for k := pending; k < len(units); k++ {
			units[k].accepted = float64(st.Moves+st.Swaps) / float64(fired)
		}
		e.check(st.Steps == segSteps, "segment %d counted %d steps, want %d", i, st.Steps, segSteps)
		e.check(st.Moves+st.Swaps+st.Rejected == st.Steps, "segment %d outcomes %+v do not sum to its steps", i, st)
		cfg := sys.Config()
		want := sops.Bichromatic(largeN)
		e.check(cfg.N() == largeN && cfg.ColorCount(0) == want[0] && cfg.ColorCount(1) == want[1],
			"segment %d: %d particles, colors %d/%d, want %v", i, cfg.N(), cfg.ColorCount(0), cfg.ColorCount(1), want)
		steps += st.Steps
		accepted += st.Moves + st.Swaps
		swaps += st.Swaps
		if traced {
			tracedLat = append(tracedLat, d)
		} else {
			plainLat = append(plainLat, d)
		}
		if i == 0 && workers <= 1 {
			first = fingerprintOf(sys, before)
		}
		if len(samples) > 1024 {
			samples = samples[len(samples)-1024:]
		}
		return nil
	})
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()

	// End-of-run checks: the configuration is sound and the last
	// checkpoint restores to exactly the live state.
	e.check(sys.CheckInvariants() == nil, "final invariants: %v", sys.CheckInvariants())
	restored, err := sops.RestoreFile(ckpt, nil)
	if e.check(err == nil, "restore last checkpoint: %v", err) {
		e.check(restored.Steps() == sys.Steps() && restored.Config().Equal(sys.Config()),
			"last checkpoint (step %d) differs from the live state (step %d)", restored.Steps(), sys.Steps())
	}
	if workers <= 1 {
		// Replay the first segment: a serial run's exact counts must repeat.
		replay, err := sops.New(opts)
		if err != nil {
			return err
		}
		replay.SetAutoCheckpoint(filepath.Join(e.dir, "replay.ckpt"), segSample)
		if _, err := replay.Run(ctx, sops.RunSpec{Steps: segSteps, SampleEvery: segSample, Observer: func(sops.Snapshot) bool { return true }}); err != nil {
			return err
		}
		again := fingerprintOf(replay, sops.Stats{})
		e.check(again == first, "large-serial nondeterminism: first segment %+v, replay %+v", first, again)
		e.note("determinism fingerprint (first segment): moves=%d swaps=%d rejected=%d window_cells=%d",
			first.moves, first.swaps, first.rejected, first.windowCells)
	}

	if err := e.setEndToEnd(start, units); err != nil {
		return err
	}
	if e.tr == nil {
		return nil
	}
	e.set("core.acceptance", float64(accepted)/float64(steps))
	e.set("core.swap_frac", float64(swaps)/float64(accepted))
	setTraceOverhead(e, wall, float64(len(units)), tracedLat, plainLat)
	return layerPass(e, passInput{
		sys: sys, samples: samples, lambda: 4, gamma: 4,
		cell: sops.SweepSpec{Counts: sops.Bichromatic(largeN), Layout: sops.LayoutSpiral, Steps: segSteps},
		run:  runJobOf(largeOptions(mix(e.seed, 5)), segSteps, segSample),
	})
}

// serialSegmentTraced is one serial segment rebuilt from the public calls
// System.Run makes — run to the next sample point, write the checkpoint,
// capture the sample — with a span around each.
func serialSegmentTraced(ctx context.Context, tr *tracer, job int, sys *sops.System, ckpt string, observe func(sops.Snapshot)) (uint64, error) {
	root := tr.begin("large.segment", 0, job)
	defer tr.end(root, segSteps)
	sys.SetAutoCheckpoint("", 0)
	defer sys.SetAutoCheckpoint(ckpt, segSample)
	var done uint64
	var buf bytes.Buffer
	for done < segSteps {
		id := tr.begin("core.run", root, job)
		n, err := sys.Run(ctx, sops.RunSpec{Steps: segSample})
		tr.end(id, n)
		done += n
		if err != nil {
			return done, err
		}
		if err := checkpointTraced(tr, root, job, sys, &buf, ckpt); err != nil {
			return done, err
		}
		id = tr.begin("metrics.capture", root, job)
		snap := sys.Metrics()
		tr.end(id, 1)
		observe(snap)
	}
	return done, nil
}

// checkpointTraced is System.WriteCheckpoint split at its layer boundary:
// the snapbin encode into a buffer, then the sealed durable write.
func checkpointTraced(tr *tracer, parent, job int, sys *sops.System, buf *bytes.Buffer, path string) error {
	buf.Reset()
	id := tr.begin("snapbin.encode", parent, job)
	err := sys.WriteCheckpointTo(buf)
	tr.end(id, uint64(buf.Len()))
	if err != nil {
		return err
	}
	id = tr.begin("seal.write", parent, job)
	err = seal.WriteSealed(path, buf.Bytes(), 0o644)
	tr.end(id, 1)
	return err
}

// setTraceOverhead reports the traced flow's own wall time and rate, and
// the tracing overhead: traced units alternate with plain ones, and the
// overhead is the ratio of their median latencies, less one.
func setTraceOverhead(e *env, wall, units float64, traced, plain []float64) {
	e.set("trace.wall_s", wall)
	e.set("trace.jobs_per_s", units/wall)
	if len(traced) > 0 && len(plain) > 0 {
		e.set("trace.overhead_frac", median(traced)/median(plain)-1)
	}
}
