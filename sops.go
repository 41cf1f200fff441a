// Package sops is a library for stochastic self-organizing particle
// systems on the triangular lattice. It implements the local, distributed
// separation/integration algorithm of Cannon, Daymude, Gökmen, Randall and
// Richa ("A Local Stochastic Algorithm for Separation in Heterogeneous
// Self-Organizing Particle Systems"), together with the amoebot-model
// substrate it runs on, the compression algorithm of PODC '16 as a special
// case, and the measurement and analysis machinery used to reproduce the
// paper's results.
//
// The core object is a System: a heterogeneous particle configuration
// evolving under Markov chain M with bias parameters λ (favoring more
// neighbors) and γ (favoring like-colored neighbors). Large λ and γ yield
// compressed, separated systems; γ near one yields compressed, integrated
// systems; the monochromatic γ = 1 case is compression.
//
//	sys, err := sops.New(sops.Options{
//		Counts: []int{50, 50}, // 50 particles of each color
//		Lambda: 4,
//		Gamma:  4,
//		Seed:   1,
//	})
//	if err != nil { ... }
//	sys.Run(context.Background(), sops.RunSpec{Steps: 1_000_000})
//	fmt.Println(sys.Metrics().Phase) // compressed-separated
//
// Subpackages under internal/ implement the substrates (lattice geometry,
// configurations, the chain, the distributed amoebot runtime, polymer
// models and cluster expansions, Ising dynamics, exact enumeration); this
// package is the stable public surface.
package sops

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"sops/internal/core"
	"sops/internal/metrics"
	"sops/internal/psys"
	"sops/internal/rng"
	"sops/internal/seal"
	"sops/internal/snapbin"
	"sops/internal/telemetry"
	"sops/internal/viz"
)

// Re-exported configuration and measurement types.
type (
	// Params are the bias parameters (λ, γ) of the separation chain.
	Params = core.Params
	// Config is a particle-system configuration.
	Config = psys.Config
	// Color identifies a particle's immutable color class.
	Color = psys.Color
	// Particle is a located, colored particle.
	Particle = psys.Particle
	// Snapshot is a numeric summary of a configuration.
	Snapshot = metrics.Snapshot
	// Thresholds parameterizes compression/separation classification.
	Thresholds = metrics.Thresholds
	// Phase is one of the four regimes of the paper's Figure 3.
	Phase = metrics.Phase
	// Outcome describes the effect of a single chain step.
	Outcome = core.Outcome
	// Stats counts chain proposals by outcome.
	Stats = core.Stats
)

// Re-exported phase and outcome values.
const (
	CompressedSeparated  = metrics.CompressedSeparated
	CompressedIntegrated = metrics.CompressedIntegrated
	ExpandedSeparated    = metrics.ExpandedSeparated
	ExpandedIntegrated   = metrics.ExpandedIntegrated

	Rejected = core.Rejected
	Moved    = core.Moved
	Swapped  = core.Swapped
)

// Layout names an initial arrangement.
type Layout = core.Layout

// Initial layouts.
const (
	// LayoutSpiral is a compact, near-minimal-perimeter start.
	LayoutSpiral = core.LayoutSpiral
	// LayoutLine is a maximal-perimeter adversarial start.
	LayoutLine = core.LayoutLine
)

// DefaultThresholds returns the classification thresholds used for the
// paper's n ≈ 100 workloads.
func DefaultThresholds() Thresholds { return metrics.DefaultThresholds() }

// Bichromatic returns the color counts for the paper's standard workload:
// n particles split as evenly as possible between two colors.
func Bichromatic(n int) []int { return core.Bichromatic(n) }

// Named validation errors. Constructors wrap these with detail, so test
// them with errors.Is rather than string comparison.
var (
	// ErrNoCounts reports that Options.Counts describes no particles
	// (missing, all zero, or containing a negative count).
	ErrNoCounts = errors.New("sops: Counts must describe at least one particle")
	// ErrBadLambda reports a non-positive or non-finite Options.Lambda.
	ErrBadLambda = errors.New("sops: Lambda must be positive and finite")
	// ErrBadGamma reports a non-positive or non-finite Options.Gamma.
	ErrBadGamma = errors.New("sops: Gamma must be positive and finite")
	// ErrBadLayout reports an Options.Layout that names no known initial
	// arrangement (the zero value defaults to LayoutSpiral).
	ErrBadLayout = errors.New("sops: Layout must be LayoutSpiral or LayoutLine")
)

// ErrUnknownModel reports an Options.Model (or SweepSpec.Model) naming no
// registered dynamics model. Wire documents without a model field decode
// to the separation model and never hit this error.
var ErrUnknownModel = core.ErrUnknownModel

// ErrBadCoupling reports a coupling name a model does not declare, or a
// coupling value it rejects. Couplings named "lambda" or "gamma" keep
// reporting ErrBadLambda/ErrBadGamma for continuity with older releases.
var ErrBadCoupling = core.ErrBadCoupling

// Options configures a System.
type Options struct {
	// Counts gives the number of particles of each color; Counts[i]
	// particles receive color i. Required.
	Counts []int
	// Layout selects the initial arrangement; defaults to LayoutSpiral.
	Layout Layout
	// Separated starts from a fully color-separated arrangement instead of
	// a random coloring (useful for integration experiments).
	Separated bool
	// Lambda is the neighbor bias λ > 0. Required.
	Lambda float64
	// Gamma is the like-color bias γ > 0. Required.
	Gamma float64
	// DisableSwaps turns off swap moves (the paper's ablation).
	DisableSwaps bool
	// Seed drives all randomness; equal seeds give identical runs.
	Seed uint64
	// Thresholds overrides the phase-classification thresholds.
	Thresholds *Thresholds
	// Model names the dynamics the System runs, from the model registry
	// ("separation", "alignment", "anneal", …; see Models). Empty selects
	// the paper's separation dynamics, exactly as before the registry
	// existed. Unknown names are rejected with ErrUnknownModel.
	Model string
	// Couplings sets the model's named coupling constants; couplings not
	// listed take the model's defaults. For models declaring couplings
	// named "lambda"/"gamma" the scalar Lambda/Gamma fields set them too
	// (an entry here wins); for the separation model Lambda and Gamma
	// remain required, so legacy option documents behave identically.
	// Unknown names are rejected with ErrBadCoupling.
	Couplings map[string]float64
}

// Validate checks the options, returning an error wrapping ErrNoCounts,
// ErrBadLayout, ErrBadLambda or ErrBadGamma on failure.
func (o Options) Validate() error {
	if err := validateCounts(o.Counts); err != nil {
		return err
	}
	if err := validateLayout(o.Layout); err != nil {
		return err
	}
	return o.validateParams()
}

// validateCounts rejects color counts that describe no particles; shared by
// Options.Validate and SweepSpec.Validate.
func validateCounts(counts []int) error {
	n := 0
	for i, k := range counts {
		if k < 0 {
			return fmt.Errorf("%w (negative count %d for color %d)", ErrNoCounts, k, i)
		}
		n += k
	}
	if n == 0 {
		return ErrNoCounts
	}
	return nil
}

// validateLayout rejects layout values that name no known arrangement
// instead of letting them fall through to core.Initial.
func validateLayout(l Layout) error {
	switch l {
	case 0, LayoutSpiral, LayoutLine:
		return nil
	}
	return fmt.Errorf("%w (got Layout(%d))", ErrBadLayout, uint8(l))
}

// validateParams checks the model and its coupling values, for
// constructors that take a ready-made configuration and ignore Counts.
func (o Options) validateParams() error {
	_, _, err := o.resolveModel()
	return err
}

// resolveModel resolves the dynamics model and its full coupling vector
// from the options: registry lookup, scalar Lambda/Gamma folded onto the
// couplings of those names, the Couplings map applied on top, and every
// value validated. For the separation model the scalars stay required;
// for other models they act as optional overrides of the declared
// defaults.
func (o Options) resolveModel() (core.Model, []float64, error) {
	m, err := core.LookupModel(o.Model)
	if err != nil {
		return nil, nil, fmt.Errorf("sops: %w", err)
	}
	sep := m.Name() == "separation"
	cs := m.Couplings()
	coup := make([]float64, len(cs))
	for i, cdef := range cs {
		v := cdef.Default
		switch cdef.Name {
		case "lambda":
			if sep || o.Lambda != 0 {
				v = o.Lambda
			}
		case "gamma":
			if sep || o.Gamma != 0 {
				v = o.Gamma
			}
		}
		if ov, ok := o.Couplings[cdef.Name]; ok {
			v = ov
		}
		coup[i] = v
	}
	for name := range o.Couplings {
		if core.CouplingIndex(m, name) < 0 {
			return nil, nil, fmt.Errorf("%w (model %q declares no coupling %q)", ErrBadCoupling, m.Name(), name)
		}
	}
	for i, cdef := range cs {
		v := coup[i]
		bad := math.IsNaN(v) || math.IsInf(v, 0) || v <= 0
		switch {
		case bad && cdef.Name == "lambda":
			return nil, nil, fmt.Errorf("%w (got %v)", ErrBadLambda, v)
		case bad && cdef.Name == "gamma":
			return nil, nil, fmt.Errorf("%w (got %v)", ErrBadGamma, v)
		case bad:
			return nil, nil, fmt.Errorf("%w (%s must be positive and finite, got %v)", ErrBadCoupling, cdef.Name, v)
		}
		if cdef.Integer && (v != math.Trunc(v) || v < 1) {
			return nil, nil, fmt.Errorf("%w (%s must be a positive integer, got %v)", ErrBadCoupling, cdef.Name, v)
		}
	}
	return m, coup, nil
}

// CouplingInfo describes one named coupling constant of a model.
type CouplingInfo struct {
	// Name is the wire name (Options.Couplings key, sweep axis name).
	Name string
	// Default is the value used when the coupling is not set.
	Default float64
	// Integer marks couplings restricted to positive integers.
	Integer bool
}

// ModelInfo describes one registered dynamics model.
type ModelInfo struct {
	// Name is the registry name (Options.Model value).
	Name string
	// Couplings lists the model's coupling constants in declared order.
	Couplings []CouplingInfo
	// Observables lists the per-model order parameters the model exports
	// through System.Observables, if any.
	Observables []string
}

// Models describes every registered dynamics model, sorted by name — the
// discovery surface behind `sops -list-models` and daemon clients.
func Models() []ModelInfo {
	names := core.ModelNames()
	out := make([]ModelInfo, 0, len(names))
	for _, name := range names {
		m, err := core.LookupModel(name)
		if err != nil {
			continue
		}
		info := ModelInfo{Name: name}
		for _, c := range m.Couplings() {
			info.Couplings = append(info.Couplings, CouplingInfo{Name: c.Name, Default: c.Default, Integer: c.Integer})
		}
		if obs, ok := m.(core.Observables); ok {
			info.Observables = append(info.Observables, obs.ObservableNames()...)
		}
		out = append(out, info)
	}
	return out
}

// initialConfig builds the starting configuration described by opts — the
// construction shared by New and NewDistributed.
func initialConfig(opts Options) (*psys.Config, error) {
	layout := opts.Layout
	if layout == 0 {
		layout = LayoutSpiral
	}
	var cfg *psys.Config
	var err error
	if opts.Separated {
		cfg, err = core.InitialSeparated(opts.Counts)
	} else {
		cfg, err = core.Initial(layout, opts.Counts, opts.Seed)
	}
	if err != nil {
		return nil, fmt.Errorf("sops: initial configuration: %w", err)
	}
	return cfg, nil
}

// System is a particle system evolving under the separation chain M.
// It is not safe for concurrent use; for a concurrent distributed execution
// see Distributed.
type System struct {
	chain *core.Chain
	th    metrics.Thresholds
	meter *metrics.Meter

	// Auto-checkpointing, configured by SetAutoCheckpoint: a serial Run
	// writes the chain state atomically to ckptPath at every absolute
	// multiple of ckptEvery and where it stops, so a killed process loses
	// at most one interval of work; a sharded Run writes it once, when the
	// run returns.
	ckptPath  string
	ckptEvery uint64

	// enc, sealed and ckpt are the reusable scratch of the binary
	// checkpoint writer; after the first write, checkpointing allocates
	// nothing.
	enc    snapbin.Encoder
	sealed []byte
	ckpt   core.Checkpoint
}

// New builds a System from options.
func New(opts Options) (*System, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cfg, err := initialConfig(opts)
	if err != nil {
		return nil, err
	}
	return NewFromConfig(cfg, opts)
}

// NewFromConfig builds a System around an existing configuration, which
// must be connected. The System takes ownership of cfg. Counts, Layout and
// Separated in opts are ignored.
func NewFromConfig(cfg *psys.Config, opts Options) (*System, error) {
	m, coup, err := opts.resolveModel()
	if err != nil {
		return nil, err
	}
	chain, err := core.NewWithModel(cfg, core.Params{
		DisableSwaps: opts.DisableSwaps,
		Seed:         opts.Seed,
	}, m, coup)
	if err != nil {
		return nil, fmt.Errorf("sops: %w", err)
	}
	return newSystem(chain, opts.Thresholds), nil
}

// newSystem wraps chain in a System classifying phases by th (nil for the
// defaults).
func newSystem(chain *core.Chain, th *Thresholds) *System {
	t := metrics.DefaultThresholds()
	if th != nil {
		t = *th
	}
	return &System{chain: chain, th: t, meter: metrics.NewMeter(t)}
}

// Step performs one iteration of the chain.
func (s *System) Step() Outcome { return s.chain.Step() }

// Telemetry re-exported types: the live-observability layer RunSpec and
// SweepSpec plug into. See the README's Observability section.
type (
	// Probe is a set of live, concurrently readable step counters the
	// engines publish into with zero allocations on the hot path.
	Probe = telemetry.Probe
	// ProbeCounters is a point-in-time reading of a Probe.
	ProbeCounters = telemetry.Counters
	// ProbeStatus is a Probe reading with derived rates (acceptance, swap
	// fraction, windowed steps/sec).
	ProbeStatus = telemetry.Status
	// Recorder samples a trajectory into a bounded ring buffer and flushes
	// CSV/JSONL trace files atomically.
	Recorder = telemetry.Recorder
	// TraceSample is one recorded trajectory point: a metrics Snapshot
	// plus the chain's Hamiltonian.
	TraceSample = telemetry.Sample
	// SweepTracker aggregates live per-cell progress of a sweep.
	SweepTracker = telemetry.SweepTracker
	// SweepProgress is a point-in-time aggregate view of a sweep.
	SweepProgress = telemetry.SweepProgress
)

// NewProbe returns a ready telemetry probe.
func NewProbe() *Probe { return telemetry.NewProbe() }

// NewRecorder returns a trace recorder holding at most capacity samples,
// recording at least every steps apart (0 records every offered sample).
func NewRecorder(capacity int, every uint64) *Recorder {
	return telemetry.NewRecorder(capacity, every)
}

// Telemetry attaches live observability to a run. Both fields are
// optional and may be shared — a Probe with a debug listener, a Recorder
// across a checkpoint/resume boundary.
type Telemetry struct {
	// Probe receives the chain's step statistics in amortized batches
	// while the run is in flight; after Run returns its totals equal the
	// work performed. The probe stays attached after the run, so bare
	// Step loops keep feeding it.
	Probe *Probe
	// Recorder is offered a TraceSample at every sample boundary of the
	// run (see RunSpec.SampleEvery); its own cadence then decides what is
	// kept, so one recorder can follow a run at a coarser resolution than
	// the observer.
	Recorder *Recorder
}

// RunSpec describes one run of a System: how many steps, how often to
// sample the configuration, and what to do with the samples. The zero
// value of everything but Steps is valid: no sampling, no telemetry.
type RunSpec struct {
	// Steps is the number of chain iterations to perform.
	Steps uint64
	// SampleEvery is the sampling cadence in steps: the run pauses at
	// every multiple of SampleEvery (in absolute step count, so resumed
	// runs sample at the same trajectory points as uninterrupted ones)
	// to capture a Snapshot for the Observer and Recorder. 0 samples
	// once, when the run ends. Sampling is independent of
	// auto-checkpointing (SetAutoCheckpoint): a sample pause writes no
	// checkpoint, and a checkpoint pause takes no sample unless it also
	// falls on a multiple of SampleEvery.
	SampleEvery uint64
	// Observer, if non-nil, receives each sample; returning false stops
	// the run early. On cancellation it is invoked one final time with
	// the state the run stopped in.
	Observer func(Snapshot) bool
	// Telemetry optionally attaches a live Probe and a trace Recorder.
	Telemetry *Telemetry
	// Workers selects the execution engine. 0 or 1 runs the serial chain —
	// bit-identical to every previous release, so seeded trajectories and
	// checkpoints stay reproducible. Workers > 1 runs this RunSpec on the
	// sharded multicore executor: the configuration is partitioned into
	// Workers row bands over a tiled store and proposals run concurrently
	// with striped boundary locking. Sharded segments are serializable
	// (equivalent to some serial proposal order, with the same stationary
	// distribution) but not deterministic — thread interleaving picks the
	// order — so runs with Workers > 1 trade replayability for throughput.
	// After the run the System carries the evolved configuration and
	// cumulative statistics and can be measured, checkpointed, or resumed
	// with any Workers setting. Auto-checkpointing (SetAutoCheckpoint)
	// writes once, when a sharded run returns, not at the interval's
	// multiples: a process killed mid-run loses the whole sharded segment.
	Workers int
}

// deriveTrace hands rec the run constants — λ, γ and the per-color
// particle census — that let binary trace flushes elide derivable
// columns. The census is fixed for the run: moves and swaps of chain M
// both conserve per-color counts.
func (s *System) deriveTrace(rec *Recorder) {
	params := s.chain.Params()
	cfg := s.chain.Config()
	var counts [psys.MaxColors]int
	k := cfg.NumColors()
	for i := 0; i < k; i++ {
		counts[i] = cfg.ColorCount(psys.Color(i))
	}
	rec.SetDerivation(params.Lambda, params.Gamma, counts[:k])
}

// Run performs up to spec.Steps iterations, sampling on spec's cadence and
// stopping early when ctx is cancelled or the Observer returns false. It
// returns the iterations actually performed, with ctx's error if the run
// was cut short. The System remains valid after a cancelled run: it can be
// resumed, measured or checkpointed. Run is the single run entry point;
// only the bare RunSteps loop exists beside it.
//
// If SetAutoCheckpoint configured a checkpoint file, a serial run
// (Workers ≤ 1) writes the state to it (atomically) at every absolute
// multiple of the checkpoint interval it reaches, and once more when it
// stops anywhere else: at the end, on cancellation, or when the Observer
// returns false. Sample pauses write nothing, and no step is written
// twice. A sharded run writes once, when it returns. A checkpoint write
// failure stops the run and is returned, joined with ctx's error when the
// failed write was a cancelled run's last: with auto-checkpointing on, a
// bare ctx error means the state the run stopped in was saved.
func (s *System) Run(ctx context.Context, spec RunSpec) (uint64, error) {
	if spec.Workers > 1 {
		return s.runSharded(ctx, spec)
	}
	var rec *Recorder
	if spec.Telemetry != nil {
		if spec.Telemetry.Probe != nil {
			s.chain.SetProbe(spec.Telemetry.Probe)
		}
		rec = spec.Telemetry.Recorder
	}
	if rec != nil {
		s.deriveTrace(rec)
	}
	sampling := spec.Observer != nil || rec != nil
	var sampleEvery uint64
	if sampling {
		sampleEvery = spec.SampleEvery
	}
	ckptEvery := s.ckptEvery
	if s.ckptPath == "" {
		ckptEvery = 0
	}
	// last is the step this run last wrote, so a stop that lands on a
	// checkpoint multiple, or follows a failed write, never writes again;
	// a run of zero steps (batch 0) writes nothing.
	last := uint64(math.MaxUint64)
	persist := func() error {
		if ckptEvery == 0 || s.Steps() == last {
			return nil
		}
		last = s.Steps()
		return s.WriteCheckpoint(s.ckptPath)
	}
	var done uint64
	for {
		// Pause at whichever comes first: the end of the run or the next
		// absolute multiple of either cadence, so a resumed run samples
		// and checkpoints at the same trajectory points as the
		// uninterrupted one.
		batch := untilMultiple(s.Steps(), sampleEvery, spec.Steps-done)
		batch = untilMultiple(s.Steps(), ckptEvery, batch)
		n, err := s.chain.RunContext(ctx, batch)
		done += n
		stop := err != nil || done >= spec.Steps
		if batch > 0 && (stop || onMultiple(s.Steps(), ckptEvery)) {
			if werr := persist(); werr != nil {
				err, stop = errors.Join(err, werr), true
			}
		}
		if sampling && (stop || onMultiple(s.Steps(), sampleEvery)) {
			snap := s.Metrics()
			if rec != nil {
				rec.Offer(TraceSample{Snap: snap, Energy: s.chain.Energy()})
			}
			// A run cut short still surfaces its final state to the
			// observer; only a run still going can be stopped by it.
			if spec.Observer != nil && !spec.Observer(snap) && !stop {
				return done, persist()
			}
		}
		if stop {
			return done, err
		}
	}
}

// untilMultiple returns the steps from step to the next multiple of every,
// capped at limit; every = 0 means no cadence.
func untilMultiple(step, every, limit uint64) uint64 {
	if every == 0 {
		return limit
	}
	return min(limit, every-step%every)
}

// onMultiple reports whether step is a multiple of a nonzero cadence.
func onMultiple(step, every uint64) bool { return every > 0 && step%every == 0 }

// runSharded executes one RunSpec on the sharded multicore engine: the
// chain's configuration is lifted into a tile store, evolved by
// spec.Workers concurrent proposal workers, sampled through the tiled
// metrics path at the spec's cadence, and folded back into the serial
// chain when the segment ends — so the System before and after looks
// exactly like it ran the steps serially, modulo the proposal order.
// Worker rng streams derive from SeedAt(chain seed, steps-so-far), so
// consecutive sharded segments of one System never reuse a stream.
func (s *System) runSharded(ctx context.Context, spec RunSpec) (uint64, error) {
	params := s.chain.Params()
	start := s.Steps()
	sh, err := core.NewShardedWithModel(s.chain.Snapshot(), params, s.chain.Model(), s.chain.Couplings(), core.ShardedOptions{
		Workers: spec.Workers,
		Seed:    rng.SeedAt(params.Seed, start),
		// Scheduled models anneal by absolute step count; the offset keeps
		// a sharded segment's schedule aligned with the steps already run.
		StepOffset: start,
	})
	if err != nil {
		return 0, fmt.Errorf("sops: sharded run: %w", err)
	}
	var rec *Recorder
	if spec.Telemetry != nil {
		if spec.Telemetry.Probe != nil {
			sh.SetProbe(spec.Telemetry.Probe)
		}
		rec = spec.Telemetry.Recorder
	}
	if rec != nil {
		s.deriveTrace(rec)
	}

	sample := func() Snapshot {
		snap := s.meter.CaptureStore(sh.Store(), start+sh.Stats().Steps)
		if rec != nil {
			rec.Offer(TraceSample{Snap: snap, Energy: sh.Energy()})
		}
		return snap
	}
	// fold moves the evolved configuration and statistics back into the
	// serial chain, preserving its parameters, rng stream, and probe
	// accounting, then writes one checkpoint if auto-checkpointing is on.
	fold := func() error {
		final, err := sh.Snapshot()
		if err != nil {
			return fmt.Errorf("sops: sharded run: %w", err)
		}
		if err := s.chain.ReplaceConfig(final); err != nil {
			return fmt.Errorf("sops: sharded run: %w", err)
		}
		s.chain.AbsorbStats(sh.Stats())
		if s.ckptEvery > 0 && s.ckptPath != "" {
			return s.WriteCheckpoint(s.ckptPath)
		}
		return nil
	}

	sampling := spec.Observer != nil || rec != nil
	var done uint64
	for done < spec.Steps {
		batch := spec.Steps - done
		if sampling && spec.SampleEvery > 0 {
			// Stop at absolute multiples of the cadence, like the serial
			// path, so resumed runs sample the same trajectory points.
			if next := spec.SampleEvery - (start+done)%spec.SampleEvery; next < batch {
				batch = next
			}
		}
		n, err := sh.Run(ctx, batch)
		done += n
		if err != nil {
			if sampling {
				snap := sample()
				if spec.Observer != nil {
					spec.Observer(snap)
				}
			}
			return done, errors.Join(err, fold())
		}
		if sampling {
			snap := sample()
			if spec.Observer != nil && !spec.Observer(snap) {
				break
			}
		}
	}
	return done, fold()
}

// RunSteps performs steps iterations unconditionally. It never checkpoints
// and takes no context; for long or observable runs use Run.
func (s *System) RunSteps(steps uint64) { s.chain.Run(steps) }

// Steps returns the number of iterations performed so far.
func (s *System) Steps() uint64 { return s.chain.Stats().Steps }

// Stats returns proposal statistics.
func (s *System) Stats() Stats { return s.chain.Stats() }

// Params returns the chain's bias parameters. For non-separation models
// Lambda/Gamma reflect the model's couplings of those names (1 when the
// model declares none).
func (s *System) Params() Params { return s.chain.Params() }

// Model returns the registry name of the dynamics the System runs.
func (s *System) Model() string { return s.chain.ModelName() }

// Couplings returns a copy of the System's full nominal coupling vector,
// in the model's declared order (see Models for the names).
func (s *System) Couplings() []float64 { return s.chain.Couplings() }

// Observables evaluates the model's exported order parameters over the
// live configuration, returning parallel name and value slices — (nil,
// nil) for a model that ships none. Scheduled models report at the
// effective couplings in force.
func (s *System) Observables() ([]string, []float64) { return s.chain.Observables() }

// N returns the number of particles.
func (s *System) N() int { return s.chain.N() }

// Config returns the live configuration for reading. Mutating it corrupts
// the System; use Snapshot for an independent copy.
func (s *System) Config() *Config { return s.chain.Config() }

// Snapshot returns an independent copy of the current configuration.
func (s *System) Snapshot() *Config { return s.chain.Snapshot() }

// Metrics summarizes the current configuration. Captures go through a
// per-System metrics.Meter, so the snapshot path reuses its flood-fill
// scratch and allocates nothing at steady state.
func (s *System) Metrics() Snapshot {
	return s.meter.Capture(s.chain.Config(), s.chain.Stats().Steps)
}

// Energy returns the Hamiltonian of the current configuration under the
// System's model — for the separation chain E(σ) = −e(σ)·ln λ − a(σ)·ln γ
// — the quantity the chain's stationary distribution exponentially favors
// minimizing. Scheduled models report at the effective couplings in
// force. Recorded traces carry it alongside each metrics sample.
func (s *System) Energy() float64 { return s.chain.Energy() }

// ASCII renders the current configuration as text.
func (s *System) ASCII() string { return viz.ASCII(s.chain.Config()) }

// RenderSVG writes the current configuration as an SVG document.
func (s *System) RenderSVG(w io.Writer) error { return viz.SVG(w, s.chain.Config()) }

// Classify assigns a configuration to one of the four Figure 3 phases.
func Classify(cfg *Config, th Thresholds) Phase { return metrics.Classify(cfg, th) }

// Capture summarizes an arbitrary configuration.
func Capture(cfg *Config, steps uint64, th Thresholds) Snapshot {
	return metrics.Capture(cfg, steps, th)
}

// IsCompressed reports whether cfg is α-compressed.
func IsCompressed(cfg *Config, alpha float64) bool { return metrics.IsCompressed(cfg, alpha) }

// IsSeparated reports whether cfg is (β,δ)-separated (Definition 3),
// using the certificate regions described in the metrics package.
func IsSeparated(cfg *Config, beta, delta float64) bool {
	return metrics.IsSeparated(cfg, beta, delta)
}

// CheckInvariants audits the live configuration against every structural
// invariant the chain maintains: internal count consistency, connectivity,
// hole-freeness, and the edge/perimeter identity e = 3n − p − 3. It returns
// nil on a healthy System and a *psys.InvariantError naming the violated
// property otherwise. Intended as a cheap integrity check after restores
// and long runs.
func (s *System) CheckInvariants() error { return s.chain.Config().CheckInvariants() }

// SetAutoCheckpoint configures crash-safe checkpointing for Run: a serial
// run writes the full chain state atomically (temp file + rename) to path
// whenever the absolute step count reaches a multiple of every, and once
// more where the run stops if that is not such a multiple (the end,
// cancellation, or an Observer returning false). A process killed mid-run
// therefore loses at most one interval of work and resumes with
// RestoreFile, and because the multiples are absolute, a resumed run
// writes at the same steps as an uninterrupted one. Sample pauses
// (RunSpec.SampleEvery) write nothing. The file previously at path is
// kept as path+".prev", so after a run that ended on a multiple it holds
// the previous multiple. A sharded run (RunSpec.Workers > 1) writes the
// checkpoint only when it returns, so a kill mid-run loses the whole
// sharded segment. every = 0 or an empty path disables
// auto-checkpointing.
func (s *System) SetAutoCheckpoint(path string, every uint64) {
	s.ckptPath, s.ckptEvery = path, every
}

// The checkpoint surface comes in three symmetric pairs:
//
//	Checkpoint        / Restore      — []byte
//	WriteCheckpointTo / RestoreFrom  — io.Writer / io.Reader
//	WriteCheckpoint   / RestoreFile  — filesystem path (atomic write)
//
// Both formats encode one state, core.Checkpoint. The writer pairs emit
// the snapbin binary wire format inside the seal integrity envelope;
// Checkpoint keeps producing the documented JSON interchange document.
// Every reader sniffs — envelope magic, then frame magic — so state
// written through any writer (either format, any release) restores
// through any reader: a job server can stream a checkpoint over HTTP,
// persist it to disk, and resume from either copy.
// `sops -convert` translates between the two formats losslessly. See
// Example (Checkpoint).

// encodeBinaryCheckpoint encodes the chain state as a sealed snapbin
// frame into the System's reusable scratch: no allocation at steady
// state. The returned slice is valid until the next encode.
func (s *System) encodeBinaryCheckpoint() ([]byte, error) {
	s.chain.Checkpoint(&s.ckpt)
	frame, err := s.enc.EncodeCheckpoint(&s.ckpt)
	if err != nil {
		return nil, fmt.Errorf("sops: encode checkpoint: %w", err)
	}
	s.sealed = seal.AppendEncode(s.sealed[:0], frame)
	return s.sealed, nil
}

// WriteCheckpoint atomically writes the System's checkpoint (see
// Checkpoint) to path inside an integrity envelope: the sealed state is
// staged in a temporary file in path's directory, synced, and renamed into
// place, so a crash mid-write never leaves a truncated checkpoint behind —
// and a checkpoint that is later corrupted on disk (bit rot, torn by a
// lying fsync) is detected at restore time instead of silently diverging
// the trajectory. The file previously at path is kept as path+".prev",
// the last-good generation RestoreFile falls back to.
func (s *System) WriteCheckpoint(path string) error {
	sealed, err := s.encodeBinaryCheckpoint()
	if err != nil {
		return err
	}
	if err := seal.WriteSealed(path, sealed, 0o644); err != nil {
		return fmt.Errorf("sops: write checkpoint: %w", err)
	}
	return nil
}

// WriteCheckpointTo writes the System's checkpoint to w as one sealed
// binary frame (the same bytes WriteCheckpoint puts on disk). Unlike
// WriteCheckpoint it makes no atomicity promise — that is the stream's
// concern — which is what a network or pipe destination wants. The write
// itself allocates nothing at steady state.
func (s *System) WriteCheckpointTo(w io.Writer) error {
	data, err := s.encodeBinaryCheckpoint()
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("sops: write checkpoint: %w", err)
	}
	return nil
}

// RestoreFrom rebuilds a System from a checkpoint stream written by
// WriteCheckpointTo (or any of the checkpoint writers). th overrides the
// phase-classification thresholds (nil for defaults).
func RestoreFrom(r io.Reader, th *Thresholds) (*System, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sops: read checkpoint: %w", err)
	}
	return Restore(data, th)
}

// RestoreFile rebuilds a System from a checkpoint file written by
// WriteCheckpoint or auto-checkpointing, verifying its integrity envelope.
// A file that fails verification is quarantined to <dir>/corrupt/ and the
// ".prev" generation is restored instead; only when no generation verifies
// does RestoreFile fail, with an error matching seal.ErrCorrupt or
// seal.ErrTruncated. th overrides the phase-classification thresholds (nil
// for defaults). The restored System continues the exact trajectory of the
// checkpointed one.
func RestoreFile(path string, th *Thresholds) (*System, error) {
	data, _, err := seal.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sops: read checkpoint: %w", err)
	}
	return Restore(data, th)
}

// Checkpoint serializes the System's complete state (configuration, bias
// parameters, statistics, random-generator state) to JSON. A System
// restored with Restore continues the exact same trajectory.
func (s *System) Checkpoint() ([]byte, error) {
	var cp core.Checkpoint
	s.chain.Checkpoint(&cp)
	return cp.MarshalJSON()
}

// Restore rebuilds a System from a Checkpoint blob. The format is
// sniffed: blobs carrying the integrity envelope (read whole from a file
// WriteCheckpoint produced) are verified and unwrapped first, then a
// snapbin frame magic selects the binary decoder and anything else is
// decoded as the JSON document — so every checkpoint reader accepts every
// checkpoint writer's output, either format, any release. th overrides
// the phase-classification thresholds (nil for defaults).
func Restore(data []byte, th *Thresholds) (*System, error) {
	if seal.Sealed(data) {
		payload, err := seal.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("sops: checkpoint: %w", err)
		}
		data = payload
	}
	var cp *core.Checkpoint
	var err error
	if snapbin.IsFrame(data) {
		cp, err = snapbin.DecodeCheckpoint(data)
	} else {
		cp = new(core.Checkpoint)
		err = cp.UnmarshalJSON(data)
	}
	if err != nil {
		return nil, fmt.Errorf("sops: decode checkpoint: %w", err)
	}
	chain, err := core.Resume(cp)
	if err != nil {
		return nil, fmt.Errorf("sops: %w", err)
	}
	return newSystem(chain, th), nil
}
