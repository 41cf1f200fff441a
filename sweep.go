package sops

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sops/internal/core"
	"sops/internal/metrics"
	"sops/internal/runner"
)

// ErrEmptySweep reports a SweepSpec whose grid contains no cells.
var ErrEmptySweep = errors.New("sops: sweep grid has no cells")

// ErrNoSteps reports a spec that asks for zero chain iterations — a
// SweepSpec with Steps == 0, or a zero-step job submitted to a front-end
// that routes through the same validation.
var ErrNoSteps = errors.New("sops: Steps must be positive")

// ErrNoCheckpointPath reports a ResumeSweep call whose spec does not name a
// checkpoint manifest to resume from.
var ErrNoCheckpointPath = errors.New("sops: ResumeSweep requires CheckpointPath")

// Sweep failure types, aliased from the sweep engine so callers can name
// them in errors.As without importing internal packages. A failed sweep
// returns a *SweepError whose Unwrap slice exposes one *CellError per
// failed cell, so errors.Is also sees through to root causes; see
// ExampleSweep_errors.
type (
	// SweepError aggregates every failed cell of a completed sweep.
	SweepError = runner.SweepError
	// CellError records the failure of a single sweep cell.
	CellError = runner.CellError
)

// SweepSpec describes a parameter sweep: one independent System per
// (λ, γ, seed) cell, run for Steps iterations from a common initial
// arrangement, then measured. Cells are enumerated λ-major, then γ, then
// seed — the order of the returned CellResult slice.
type SweepSpec struct {
	// Lambdas and Gammas are the grid axes; the sweep covers their cross
	// product. Both required.
	Lambdas []float64
	Gammas  []float64
	// Seeds lists the chain seeds run at every grid point (replicates).
	// Empty means one replicate with Seed.
	Seeds []uint64
	// Seed is the seed used when Seeds is empty.
	Seed uint64
	// Counts gives the particles per color, as in Options (see Bichromatic
	// for the paper's standard split). Required.
	Counts []int
	// Layout, Separated and DisableSwaps configure each cell's System
	// exactly as in Options.
	Layout       Layout
	Separated    bool
	DisableSwaps bool
	// Model selects the dynamics every cell runs, by registry name; empty
	// means the separation model, swept over Lambdas × Gammas exactly as
	// before. Non-separation models sweep CouplingAxes instead.
	Model string
	// Couplings fixes named coupling values uniformly across the grid for
	// a non-separation Model (unnamed couplings keep their declared
	// defaults). A coupling listed in CouplingAxes ignores its entry here.
	Couplings map[string]float64
	// CouplingAxes gives the swept values per coupling name for a
	// non-separation Model; the grid is the cross product of the listed
	// axes, enumerated with the model's first declared coupling as the
	// outermost (major) axis, then the next, …, then seed — the
	// generalization of the λ-major, then γ, then seed order. Couplings
	// without an axis are held fixed at their Couplings/default value.
	CouplingAxes map[string][]float64
	// Steps is the number of chain iterations per cell.
	Steps uint64
	// Workers caps the sweep's concurrency; values <= 0 use GOMAXPROCS.
	// Results are identical at any worker count — workers only change
	// wall-clock time.
	Workers int
	// Thresholds overrides the phase-classification thresholds.
	Thresholds *Thresholds
	// Observe, if non-nil, is called after each cell completes with the
	// number of finished cells and the total. Calls are serialized. On a
	// resumed sweep, done starts above the cells already completed.
	Observe func(done, total int)
	// Retries grants each cell bounded re-attempts after a failure or
	// panic (context errors are never retried); Backoff is the delay
	// before the first retry, doubling each time. The retries a cell
	// consumed are surfaced in its CellResult.
	Retries int
	Backoff time.Duration
	// CheckpointPath, when non-empty, makes the sweep crash-safe: a
	// manifest of completed cells is rewritten atomically at this path
	// after every completed cell, and a process killed mid-sweep is
	// continued with ResumeSweep under the same spec. See EXPERIMENTS.md
	// for the on-disk format.
	CheckpointPath string
	// CheckpointSteps additionally checkpoints each in-flight cell's chain
	// state every CheckpointSteps steps to CheckpointPath + ".cellNNNN",
	// so resuming restores partially-run cells mid-trajectory instead of
	// restarting them. 0 restarts interrupted cells from scratch.
	CheckpointSteps uint64
	// Probe, if non-nil, receives every cell's step statistics — one probe
	// shared across the whole sweep, so a live reader (the /debug server,
	// the job daemon's stuck-job watchdog) sees steps advancing even while
	// a single long cell is in flight. Runtime-only: not part of the wire
	// codec, and never affects results.
	Probe *Probe
	// Tracker, if non-nil, receives the sweep's live per-cell lifecycle:
	// done/running/failed counts, retries consumed, elapsed time and an
	// ETA, readable at any moment via Tracker.Progress — including from
	// other goroutines, e.g. a telemetry debug server. On a resumed sweep
	// the cells already completed count as done from the start.
	Tracker *SweepTracker
}

// Validate checks the parts of the spec that are uniform across the grid:
// it returns an error wrapping ErrEmptySweep for a grid with no cells,
// ErrNoSteps for zero-step cells, and ErrNoCounts or ErrBadLayout for a
// bad per-cell configuration. Per-axis bias values are deliberately not
// checked here — an invalid λ or γ fails only its own cells, reported in
// their CellResult.Err, while the rest of the sweep completes.
//
// Sweep and ResumeSweep call Validate before running anything; it is
// exported so front-ends can reject a bad spec before scheduling work.
func (spec *SweepSpec) Validate() error {
	m, err := core.LookupModel(spec.Model)
	if err != nil {
		return fmt.Errorf("sops: %w", err)
	}
	if spec.separation() {
		if len(spec.CouplingAxes) > 0 {
			return fmt.Errorf("%w: the separation model sweeps Lambdas/Gammas, not CouplingAxes", ErrBadCoupling)
		}
		if len(spec.Lambdas) == 0 || len(spec.Gammas) == 0 {
			return fmt.Errorf("%w (%d lambdas × %d gammas)", ErrEmptySweep, len(spec.Lambdas), len(spec.Gammas))
		}
	} else {
		if len(spec.Lambdas) > 0 || len(spec.Gammas) > 0 {
			return fmt.Errorf("%w: model %q sweeps CouplingAxes, not Lambdas/Gammas", ErrBadCoupling, spec.Model)
		}
		for name, vals := range spec.CouplingAxes {
			if core.CouplingIndex(m, name) < 0 {
				return fmt.Errorf("%w: model %q has no coupling %q", ErrBadCoupling, spec.Model, name)
			}
			if len(vals) == 0 {
				return fmt.Errorf("%w (empty axis for coupling %q)", ErrEmptySweep, name)
			}
		}
		for name := range spec.Couplings {
			if core.CouplingIndex(m, name) < 0 {
				return fmt.Errorf("%w: model %q has no coupling %q", ErrBadCoupling, spec.Model, name)
			}
		}
	}
	if spec.Steps == 0 {
		return ErrNoSteps
	}
	if err := validateCounts(spec.Counts); err != nil {
		return err
	}
	return validateLayout(spec.Layout)
}

// separation reports whether the spec runs the legacy separation grid.
func (spec *SweepSpec) separation() bool {
	return spec.Model == "" || spec.Model == "separation"
}

// resolveSeeds returns the per-grid-point replicate seeds.
func (spec *SweepSpec) resolveSeeds() []uint64 {
	if len(spec.Seeds) > 0 {
		return spec.Seeds
	}
	return []uint64{spec.Seed}
}

// resolveThresholds returns the classification thresholds in effect.
func (spec *SweepSpec) resolveThresholds() Thresholds {
	if spec.Thresholds != nil {
		return *spec.Thresholds
	}
	return metrics.DefaultThresholds()
}

// sweepCell is one grid cell; index is its position in the full grid
// enumeration, stable across resumes. Separation cells carry (λ, γ);
// non-separation cells carry the full coupling vector in model order (coup
// non-nil), with lambda/gamma mirroring the so-named couplings when the
// model declares them.
type sweepCell struct {
	index         int
	lambda, gamma float64
	seed          uint64
	coup          []float64
}

// cells enumerates the spec's grid: λ-major, then γ, then seed for the
// separation model; first-declared-coupling-major, …, then seed otherwise.
func (spec *SweepSpec) cells() []sweepCell {
	seeds := spec.resolveSeeds()
	if spec.separation() {
		out := make([]sweepCell, 0, len(spec.Lambdas)*len(spec.Gammas)*len(seeds))
		for _, l := range spec.Lambdas {
			for _, g := range spec.Gammas {
				for _, s := range seeds {
					out = append(out, sweepCell{index: len(out), lambda: l, gamma: g, seed: s})
				}
			}
		}
		return out
	}
	m, err := core.LookupModel(spec.Model)
	if err != nil {
		return nil // Validate already rejected the spec
	}
	decls := m.Couplings()
	axes := make([][]float64, len(decls))
	total := len(seeds)
	for i, d := range decls {
		if vals, ok := spec.CouplingAxes[d.Name]; ok {
			axes[i] = vals
		} else if v, ok := spec.Couplings[d.Name]; ok {
			axes[i] = []float64{v}
		} else {
			axes[i] = []float64{d.Default}
		}
		total *= len(axes[i])
	}
	out := make([]sweepCell, 0, total)
	coup := make([]float64, len(decls))
	li, gi := core.CouplingIndex(m, "lambda"), core.CouplingIndex(m, "gamma")
	var walk func(axis int)
	walk = func(axis int) {
		if axis == len(axes) {
			for _, s := range seeds {
				c := sweepCell{index: len(out), seed: s, coup: append([]float64(nil), coup...)}
				if li >= 0 {
					c.lambda = coup[li]
				}
				if gi >= 0 {
					c.gamma = coup[gi]
				}
				out = append(out, c)
			}
			return
		}
		for _, v := range axes[axis] {
			coup[axis] = v
			walk(axis + 1)
		}
	}
	walk(0)
	return out
}

// CellResult is the outcome of one sweep cell.
type CellResult struct {
	Lambda, Gamma float64
	Seed          uint64
	// Couplings is the cell's full coupling vector in model order for
	// non-separation sweeps; nil on the separation grid, where Lambda and
	// Gamma carry the coordinates.
	Couplings []float64
	Snap      Snapshot // the final configuration's metrics (zero if Err != nil)
	Err       error    // the cell's failure, or the context error if never run
	Retries   int      // re-attempts the cell consumed (0 = first try succeeded)
}

// Sweep runs the spec's λ×γ×seed grid on the parallel sweep engine and
// returns one CellResult per cell, in grid order.
//
// Each cell is fully deterministic given its (λ, γ, seed) coordinates, so
// the result slice is identical regardless of Workers. Cancelling ctx
// returns promptly with ctx's error: completed cells keep their results,
// and cells that were interrupted or never ran carry the context error in
// their Err field. Per-cell failures do not abort the sweep; they are
// collected into the returned error while the other cells complete.
//
// With CheckpointPath set the sweep is additionally crash-safe: completed
// cells are recorded in an atomically-written manifest (and, with
// CheckpointSteps, in-flight cells checkpoint their chain state), so an
// interrupted sweep is continued with ResumeSweep and produces the same
// results it would have uninterrupted.
func Sweep(ctx context.Context, spec SweepSpec) ([]CellResult, error) {
	return runSweep(ctx, spec, false)
}

// ResumeSweep continues a sweep that a previous Sweep or ResumeSweep call
// with the same spec left checkpointed at spec.CheckpointPath: cells
// recorded in the manifest are returned without re-running, in-flight
// cells resume from their chain checkpoints (when CheckpointSteps was
// set), and the rest run normally. The combined result slice is identical
// to what the uninterrupted sweep would have returned. A manifest written
// under a different spec is rejected with ErrSweepCheckpointMismatch; a
// missing manifest simply runs the whole sweep.
func ResumeSweep(ctx context.Context, spec SweepSpec) ([]CellResult, error) {
	if spec.CheckpointPath == "" {
		return nil, ErrNoCheckpointPath
	}
	return runSweep(ctx, spec, true)
}

// runSweep is the shared engine behind Sweep and ResumeSweep.
func runSweep(ctx context.Context, spec SweepSpec, resume bool) ([]CellResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cells := spec.cells()
	th := spec.resolveThresholds()

	ck, err := newSweepCheckpointer(spec)
	if err != nil {
		return nil, err
	}
	out := make([]CellResult, len(cells))
	for i, c := range cells {
		out[i] = CellResult{Lambda: c.lambda, Gamma: c.gamma, Seed: c.seed, Couplings: c.coup}
	}
	pending := cells
	if resume {
		completed, err := ck.load()
		if err != nil {
			return nil, err
		}
		pending = pending[:0:0]
		for i, c := range cells {
			if rec, ok := completed[i]; ok {
				out[i].Snap = rec.Snap
				out[i].Retries = rec.Retries
			} else {
				pending = append(pending, c)
			}
		}
	}
	if len(pending) == 0 {
		return out, nil
	}

	if spec.Tracker != nil {
		spec.Tracker.Begin(len(cells), len(cells)-len(pending))
	}
	var observe func(runner.Progress)
	if spec.Observe != nil {
		base := len(cells) - len(pending)
		observe = func(p runner.Progress) { spec.Observe(base+p.Done, len(cells)) }
	}
	results, err := runner.Sweep(ctx, pending, runner.Options{
		Workers: spec.Workers,
		Seed:    spec.Seed,
		Observe: observe,
		Retries: spec.Retries,
		Backoff: spec.Backoff,
		Track:   spec.Tracker,
	}, func(ctx context.Context, c sweepCell, _ uint64) (Snapshot, error) {
		return runSweepCell(ctx, &spec, c, th, ck)
	})

	for j, r := range results {
		i := pending[j].index
		out[i].Snap = r.Value
		out[i].Err = r.Err
		if r.Attempts > 0 {
			out[i].Retries = r.Attempts - 1
		}
	}
	if ck != nil {
		if ferr := ck.flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	return out, err
}

// runSweepCell computes one cell: build (or restore) its System, run the
// remaining steps, measure, and record the completion in the sweep
// checkpoint. The cell's own seed drives all randomness, not the
// engine-derived one, so results match a serial run of the same
// (λ, γ, seed) cell.
func runSweepCell(ctx context.Context, spec *SweepSpec, c sweepCell, th Thresholds, ck *sweepCheckpointer) (Snapshot, error) {
	if ck != nil {
		ck.beginAttempt(c.index)
	}
	sys := ck.restoreCell(c, spec, th)
	if sys == nil {
		opts := Options{
			Counts:       spec.Counts,
			Layout:       spec.Layout,
			Separated:    spec.Separated,
			Lambda:       c.lambda,
			Gamma:        c.gamma,
			DisableSwaps: spec.DisableSwaps,
			Seed:         c.seed,
			Thresholds:   spec.Thresholds,
		}
		if c.coup != nil {
			// Non-separation cell: the full coupling vector travels by name,
			// which takes precedence over the Lambda/Gamma scalars.
			opts.Model = spec.Model
			opts.Couplings = couplingMap(spec.Model, c.coup)
		}
		var err error
		sys, err = New(opts)
		if err != nil {
			return Snapshot{}, err
		}
	}
	if ck != nil && ck.steps > 0 {
		sys.SetAutoCheckpoint(ck.cellPath(c.index), ck.steps)
	}
	run := RunSpec{Steps: spec.Steps - sys.Steps()}
	if spec.Probe != nil {
		run.Telemetry = &Telemetry{Probe: spec.Probe}
	}
	if _, err := sys.Run(ctx, run); err != nil {
		return Snapshot{}, err
	}
	snap := sys.Metrics()
	if ck != nil {
		if err := ck.complete(c.index, snap); err != nil {
			return Snapshot{}, err
		}
	}
	return snap, nil
}

// couplingMap renders a model-order coupling vector as the named map
// Options.Couplings consumes.
func couplingMap(model string, coup []float64) map[string]float64 {
	m, err := core.LookupModel(model)
	if err != nil {
		return nil
	}
	out := make(map[string]float64, len(coup))
	for i, d := range m.Couplings() {
		if i < len(coup) {
			out[d.Name] = coup[i]
		}
	}
	return out
}
