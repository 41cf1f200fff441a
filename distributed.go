package sops

import (
	"context"
	"fmt"
	"io"

	"sops/internal/amoebot"
	"sops/internal/core"
	"sops/internal/fault"
	"sops/internal/metrics"
	"sops/internal/rng"
	"sops/internal/viz"
)

// Fault-injection types, re-exported so callers configure the injector
// without importing internal packages.
type (
	// FaultOptions configures deterministic fault injection for a
	// Distributed execution; see EnableFaults. The zero value injects
	// nothing.
	FaultOptions = fault.Options
	// FaultStats counts the faults injected so far.
	FaultStats = fault.Stats
)

// Distributed is the asynchronous amoebot-model execution of the
// distributed algorithm A for the model Options select: particles are
// independent agents; activations may run concurrently and are serialized
// only where their neighborhoods overlap. One scheduler runs every worker
// count, and every activation decides through the same rule as the
// centralized chain's step, so a one-worker run is the chain's trajectory
// until a proposal reaches the arena edge, and quiescent snapshots
// satisfy the same invariants at any worker count.
// Models with a schedule (anneal) are rejected: concurrent activations
// have no global step order at which to change couplings.
//
// RunContext spawns the concurrency internally; the Distributed value
// itself is a single-controller object — do not call RunContext from
// multiple goroutines at once. SetFrozen and Snapshot are safe to call
// while a run is in progress.
type Distributed struct {
	world *amoebot.World
	th    metrics.Thresholds
	done  uint64
	sched *rng.Source // deterministic per-run scheduler seeds, from Options.Seed
	inj   *fault.Injector
}

// schedulerStream is the rng.SeedAt index reserved for deriving the
// activation scheduler's seed sequence from Options.Seed, chosen far from
// the small cell indices sweeps use so the streams never collide.
const schedulerStream = 0x5eed<<32 | 0x5c4ed

// NewDistributed builds a distributed execution from options, binding the
// model and couplings as New does. The arena is sized automatically.
// Scheduler randomness derives from Options.Seed: equal options give
// identical sequences of runs.
func NewDistributed(opts Options) (*Distributed, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	m, coup, err := opts.resolveModel()
	if err != nil {
		return nil, err
	}
	cfg, err := initialConfig(opts)
	if err != nil {
		return nil, err
	}
	world, err := amoebot.NewWorldWithModel(cfg, core.Params{
		DisableSwaps: opts.DisableSwaps,
		Seed:         opts.Seed,
	}, m, coup, 0)
	if err != nil {
		return nil, fmt.Errorf("sops: %w", err)
	}
	th := metrics.DefaultThresholds()
	if opts.Thresholds != nil {
		th = *opts.Thresholds
	}
	return &Distributed{
		world: world,
		th:    th,
		sched: rng.New(rng.SeedAt(opts.Seed, schedulerStream)),
	}, nil
}

// RunContext executes up to activations activations across workers
// concurrent activation sources (workers ≤ 1 runs one), stopping
// early when ctx is cancelled. It returns the activations actually
// performed and the accepted move and swap counts; err is ctx's error if
// the run was cut short. Each call consumes the next seed of the
// deterministic scheduler sequence derived from Options.Seed.
func (d *Distributed) RunContext(ctx context.Context, activations uint64, workers int) (performed, moves, swaps uint64, err error) {
	return d.run(ctx, activations, workers, d.sched.Uint64())
}

// run executes the activations on the amoebot scheduler, with at least
// one worker, and accounts for the activations performed.
func (d *Distributed) run(ctx context.Context, activations uint64, workers int, seed uint64) (performed, moves, swaps uint64, err error) {
	res, err := amoebot.Run(ctx, d.world, activations, max(workers, 1), seed, d.inj)
	d.done += res.Activations
	if err != nil && err != ctx.Err() {
		return res.Activations, res.Moves, res.Swaps, fmt.Errorf("sops: %w", err)
	}
	return res.Activations, res.Moves, res.Swaps, err
}

// EnableFaults arms deterministic fault injection for all subsequent runs:
// activation sources crash-stop and restart, drop activation slots, and
// stall at lock boundaries according to opts, all reproducibly from
// opts.Seed. The world is audited after every injected recovery (and at
// the SetAuditEvery cadence); an audit failure aborts the run with a
// *psys.InvariantError. Passing the zero FaultOptions disables injection
// again. Not safe to call while a run is in progress.
func (d *Distributed) EnableFaults(opts FaultOptions) error {
	if opts == (FaultOptions{}) {
		d.inj = nil
		return nil
	}
	inj, err := fault.New(opts)
	if err != nil {
		return fmt.Errorf("sops: %w", err)
	}
	d.inj = inj
	return nil
}

// FaultStats reports the faults injected so far across all runs; the zero
// value when EnableFaults was never armed.
func (d *Distributed) FaultStats() FaultStats {
	if d.inj == nil {
		return FaultStats{}
	}
	return d.inj.Stats()
}

// SetAuditEvery configures the invariant-audit cadence: during runs the
// world is audited after every n performed activations (0 disables). Safe
// to call while a run is in progress.
func (d *Distributed) SetAuditEvery(n uint64) { d.world.SetAuditEvery(n) }

// CheckInvariants audits the world immediately: the particle registry and
// grid must agree, and the quiescent configuration must satisfy every
// chain invariant. It returns nil on a healthy world and a
// *psys.InvariantError naming the violated property otherwise. Safe to
// call while a run is in progress (it briefly excludes activations).
func (d *Distributed) CheckInvariants() error { return d.world.Audit() }

// N returns the number of particles.
func (d *Distributed) N() int { return d.world.N() }

// SetFrozen crash-stops (or revives) particle id: a frozen particle stops
// acting but remains present and still participates passively in
// neighbor-initiated swaps. Safe to call while a run is in progress.
func (d *Distributed) SetFrozen(id int, frozen bool) { d.world.SetFrozen(id, frozen) }

// Frozen reports whether particle id is crash-stopped.
func (d *Distributed) Frozen(id int) bool { return d.world.Frozen(id) }

// SetProbe attaches a telemetry probe: subsequent runs publish live
// activation counts into it in per-source batches — performed activations
// as steps, accepted moves and swaps, and the remainder (rejected
// proposals) as rejected. Slots dropped by fault injection are excluded;
// see FaultStats for those. Passing nil detaches. Safe to call while a run
// is in progress; sources notice at their next batch boundary. The same
// probe may be shared with a System or a debug server.
func (d *Distributed) SetProbe(p *Probe) { d.world.SetProbe(p) }

// Energy returns the bound model's Hamiltonian of a quiescent snapshot —
// comparable with System.Energy on equal configurations.
func (d *Distributed) Energy() float64 { return d.world.Energy() }

// Snapshot returns a quiescent copy of the configuration.
func (d *Distributed) Snapshot() *Config { return d.world.Snapshot() }

// Metrics summarizes a quiescent snapshot of the system.
func (d *Distributed) Metrics() Snapshot {
	return metrics.Capture(d.world.Snapshot(), d.done, d.th)
}

// ASCII renders a quiescent snapshot as text.
func (d *Distributed) ASCII() string { return viz.ASCII(d.world.Snapshot()) }

// RenderSVG writes a quiescent snapshot as an SVG document.
func (d *Distributed) RenderSVG(w io.Writer) error { return viz.SVG(w, d.world.Snapshot()) }
