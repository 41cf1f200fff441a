// Package core implements the paper's primary contribution: the stochastic,
// local, distributed algorithm for separation and integration in
// heterogeneous self-organizing particle systems, in its centralized Markov
// chain form M (Algorithm 1).
//
// The chain's state space is the set of connected configurations of n
// contracted colored particles on the triangular lattice. Each step chooses
// a particle P and a random neighboring location l', and either
//
//   - moves P to l' (if l' is unoccupied, P does not have five neighbors,
//     the pair satisfies locally checkable Property 4 or 5, and a Metropolis
//     filter on λ^{e'−e}·γ^{e'_i−e_i} accepts), or
//   - swaps P with the particle Q at l' (accepted by a Metropolis filter on
//     γ raised to the change in same-color adjacencies).
//
// By Lemma 9, the chain converges to the stationary distribution
// π(σ) ∝ (λγ)^{−p(σ)}·γ^{−h(σ)} over connected hole-free configurations,
// equivalently π(σ) ∝ λ^{e(σ)}·γ^{a(σ)}. Setting γ large yields separation;
// γ near one yields integration; the monochromatic case with γ = 1 is
// exactly the compression chain of Cannon et al. (PODC '16).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"sops/internal/lattice"
	"sops/internal/psys"
	"sops/internal/rng"
)

// Params are the bias parameters of Markov chain M.
type Params struct {
	// Lambda (λ) biases particles toward having more neighbors; λ > 1
	// favors compression. Must be positive.
	Lambda float64
	// Gamma (γ) biases particles toward having more like-colored
	// neighbors; γ > 1 favors separation. Must be positive.
	Gamma float64
	// DisableSwaps turns off swap moves. Swaps are not necessary for
	// correctness (§2.3) but speed up convergence substantially; disabling
	// them reproduces the paper's ablation.
	DisableSwaps bool
	// Seed seeds the chain's deterministic random source.
	Seed uint64
}

// Validate checks that the parameters define a proper chain.
func (p Params) Validate() error {
	if math.IsNaN(p.Lambda) || p.Lambda <= 0 {
		return fmt.Errorf("core: lambda %v must be positive", p.Lambda)
	}
	if math.IsNaN(p.Gamma) || p.Gamma <= 0 {
		return fmt.Errorf("core: gamma %v must be positive", p.Gamma)
	}
	return nil
}

// Outcome describes the effect of one step of the chain.
type Outcome uint8

// Step outcomes. A step that proposes an invalid or Metropolis-rejected
// transition leaves the configuration unchanged and reports Rejected.
const (
	Rejected Outcome = iota + 1
	Moved
	Swapped
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Rejected:
		return "rejected"
	case Moved:
		return "moved"
	case Swapped:
		return "swapped"
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// Stats counts the proposals made by a chain, by outcome.
type Stats struct {
	Steps    uint64 // total iterations (proposals)
	Moves    uint64 // accepted particle moves
	Swaps    uint64 // accepted (color-changing) swap moves
	Rejected uint64 // proposals that left the configuration unchanged
}

// maxExp bounds |exponent| in the Metropolis filters: move exponents are
// within ±5 for λ and γ; swap exponents within ±10.
const maxExp = 12

// Chain is an instance of Markov chain M bound to a configuration.
// It is not safe for concurrent use.
type Chain struct {
	cfg    *psys.Config
	params Params
	rand   *rng.Buffered
	stats  Stats

	// slots is the particle list of O(1) uniform selection: slots[i] is
	// the index, in cfg's storage window, of particle slot i's cell. A step
	// gathers at the slot it draws and an accepted move writes the target's
	// index into the same slot; on the rare move that re-homes the window,
	// the n slots are rebased onto the new one.
	slots []int32

	// probe, when set, receives the chain's statistics in amortized
	// batches: Step publishes the delta since probeBase every probeBatch
	// steps, and the run loops flush on exit, so live readers lag by less
	// than a batch while the hot path pays only a nil-check.
	probe     Probe
	probeBase Stats

	// rule decides each proposal for the chain's model (rule.go), from
	// tables built at coupNow. coup is the full coupling vector in model
	// order; coupNow aliases coup for unscheduled models and holds the
	// scheduler's effective energy couplings otherwise. dE is the reusable
	// exponent scratch, and gather a persistent gather target so passing
	// its address through the Model interface never allocates per step.
	rule    Rule
	coup    []float64
	coupNow []float64
	dE      []int8
	sched   Scheduler
	nextReb uint64 // absolute step at which effective couplings change next
	gather  psys.PairGather
}

// ErrEmptyConfig is returned when constructing a chain with no particles.
var ErrEmptyConfig = errors.New("core: configuration has no particles")

// ErrDisconnected is returned when the initial configuration is not
// connected; M requires a connected start (Lemma 6).
var ErrDisconnected = errors.New("core: initial configuration is disconnected")

// New creates a chain running the paper's separation dynamics on cfg. The
// chain takes ownership of cfg: callers must not mutate it while the chain
// runs (use Snapshot for copies).
func New(cfg *psys.Config, params Params) (*Chain, error) {
	return NewWithModel(cfg, params, Separation, []float64{params.Lambda, params.Gamma})
}

// NewWithModel creates a chain running model m on cfg with the given full
// coupling vector (nil selects the model's defaults). params supplies the
// seed and the swap switch; its Lambda/Gamma are normalized from the
// model's couplings of those names (see BindModel). Scheduled models
// (Scheduler) recompute their acceptance thresholds at stage boundaries.
func NewWithModel(cfg *psys.Config, params Params, m Model, coup []float64) (*Chain, error) {
	m, params, coup, err := BindModel(m, cfg.NumColors(), params, coup)
	if err != nil {
		return nil, err
	}
	if cfg.N() == 0 {
		return nil, ErrEmptyConfig
	}
	if !cfg.Connected() {
		return nil, ErrDisconnected
	}
	c := &Chain{
		params:  params,
		rand:    rng.NewBuffered(params.Seed),
		coup:    coup,
		coupNow: coup,
		dE:      make([]int8, m.NumExponents()),
		nextReb: math.MaxUint64,
	}
	c.rule = newRule(m, params.DisableSwaps)
	if s, ok := m.(Scheduler); ok {
		c.sched, c.coupNow = s, append([]float64(nil), coup...)
	}
	if err := c.setConfig(cfg); err != nil {
		return nil, err
	}
	c.retune()
	return c, nil
}

// retune recomputes the effective energy couplings for the chain's
// current absolute step count (scheduled models only) and the acceptance
// thresholds from them. Called at construction, after a checkpoint
// restore, and from Step when the scheduler's announced boundary is
// reached.
func (c *Chain) retune() {
	k := c.rule.model.NumExponents()
	if c.sched != nil {
		c.nextReb = c.sched.Effective(c.coup, c.stats.Steps, c.coupNow[:k])
	}
	c.rule.retune(c.coupNow[:k])
}

// Model returns the dynamics the chain runs.
func (c *Chain) Model() Model { return c.rule.model }

// ModelName returns the registry name of the chain's dynamics.
func (c *Chain) ModelName() string { return c.rule.model.Name() }

// Couplings returns a copy of the chain's full (nominal) coupling vector,
// in the model's declared order.
func (c *Chain) Couplings() []float64 { return append([]float64(nil), c.coup...) }

// Observables evaluates the model's exported order parameters over the
// live configuration, or (nil, nil) for a model that ships none. Values
// are computed at the effective couplings in force.
func (c *Chain) Observables() ([]string, []float64) {
	o, ok := c.rule.model.(Observables)
	if !ok {
		return nil, nil
	}
	names := o.ObservableNames()
	out := make([]float64, len(names))
	o.Observe(c.cfg, c.coupNow, out)
	return names, out
}

// ErrWindowRange is returned for a configuration whose storage window
// has more cells than an int32 slot can index (2³¹ − 1, a 2 GB window).
var ErrWindowRange = errors.New("core: storage window exceeds the int32 slot range")

// setConfig binds the chain to cfg and lists its particles, in canonical
// point order, over cfg's window.
func (c *Chain) setConfig(cfg *psys.Config) error {
	if a := cfg.Window().Area(); a > math.MaxInt32 {
		return fmt.Errorf("%w: %d cells", ErrWindowRange, a)
	}
	c.cfg = cfg
	c.slots = cfg.AppendIndices(slices.Grow(c.slots[:0], cfg.N()))
	return nil
}

// rebase moves every slot from window ow onto the configuration's current
// window, which covers every particle too: O(n) on the rare move that
// re-homes the window.
func (c *Chain) rebase(ow lattice.Window) {
	nw := c.cfg.Window()
	if nw.Area() > math.MaxInt32 {
		panic(fmt.Sprintf("core: %v: %d cells", ErrWindowRange, nw.Area()))
	}
	for k, s := range c.slots {
		c.slots[k] = int32(nw.Index(ow.PointAt(int(s))))
	}
}

// Params returns the chain's bias parameters.
func (c *Chain) Params() Params { return c.params }

// Config returns the chain's live configuration. Callers must treat it as
// read-only; mutating it corrupts the chain's particle list.
func (c *Chain) Config() *psys.Config { return c.cfg }

// Snapshot returns an independent copy of the current configuration.
func (c *Chain) Snapshot() *psys.Config { return c.cfg.Clone() }

// Stats returns the cumulative step statistics.
func (c *Chain) Stats() Stats { return c.stats }

// probeBatch is the number of steps between probe publishes on the Step hot
// path: large enough that the four atomic adds and the batch check are
// invisible next to the step kernel, small enough that a live reader is at
// most a fraction of a millisecond stale.
const probeBatch = 1024

// Probe receives step statistics in amortized batches. It is satisfied by
// *telemetry.Probe; core declares only the interface so it stays below the
// telemetry layer in the dependency graph.
type Probe interface {
	// Add accumulates steps performed and their outcome split. Implementations
	// must be safe for concurrent use; steps >= moves+swaps+rejected.
	Add(steps, moves, swaps, rejected uint64)
}

// SetProbe attaches a telemetry probe: from now on the chain publishes its
// step statistics into p in amortized batches, and the run methods flush the
// remainder when they return, after which the probe's counters match the
// delta of Stats() since attachment exactly. Attaching nil detaches (after a
// final flush). The probe may be shared with concurrent readers and other
// writers; the chain itself remains single-threaded.
func (c *Chain) SetProbe(p Probe) {
	c.FlushProbe()
	c.probe = p
	c.probeBase = c.stats
}

// FlushProbe publishes any statistics not yet visible on the attached
// probe. No-op without a probe; the run loops call it on exit so callers
// only need it around bare Step loops.
func (c *Chain) FlushProbe() {
	if c.probe == nil {
		return
	}
	d, b := c.stats, c.probeBase
	if d.Steps == b.Steps {
		return
	}
	c.probe.Add(d.Steps-b.Steps, d.Moves-b.Moves, d.Swaps-b.Swaps, d.Rejected-b.Rejected)
	c.probeBase = d
}

// N returns the number of particles.
func (c *Chain) N() int { return len(c.slots) }

// Step performs one iteration of Markov chain M (Algorithm 1) and reports
// its outcome. The proposal is evaluated through the table-driven kernel:
// one GatherAt at the drawn slot's window index reads the joint (l, lp)
// neighborhood from the dense store into packed masks — every particle
// sits at depth ≥ 1, where that gather is exact — and the chain's Rule
// decides it: a validity table probe, the model's Metropolis exponents
// (popcount differences for the paper's dynamics), and a precomputed
// integer acceptance threshold. An accepted proposal commits from the same
// gather. The kernel consumes the identical random draws and makes the
// identical decisions as the reference call chain (Degree/Property4/
// Property5/Float64), which the committed golden trajectories and the
// psys differential fuzz targets enforce.
//
// Before it gathers, Step compares the two end bytes at l and lp: l holds
// the drawn particle, so equal bytes mean a same-coloured particle at lp,
// a swap that is the identity whichever way its filter goes. The rule's
// same-colour branch, which Rule.Decide also takes first, decides it from
// the couplings alone, spending the draw the full decision would have
// spent (SwapExponents' same-colour contract), so the chain
// takes the same draws and samples the same trajectory with no ring
// gather, model call or table probe for the commonest rejection.
//
// A pending probe batch is published and a due retune run before the step
// is counted, so every batch holds whole steps. The gather lands in a
// persistent chain field so passing its address through the Model
// interface never allocates.
func (c *Chain) Step() Outcome {
	if c.probe != nil && c.stats.Steps-c.probeBase.Steps >= probeBatch {
		c.FlushProbe()
	}
	if c.stats.Steps >= c.nextReb {
		c.retune()
	}
	c.stats.Steps++
	k := c.rand.Intn(len(c.slots))
	dir := lattice.Direction(c.rand.Intn(lattice.NumDirections))
	i := int(c.slots[k])
	if c.cfg.SameAt(i, dir) {
		c.stats.Rejected++
		return c.rule.sameColor(c.rand)
	}
	c.gather = c.cfg.GatherAt(i, dir)
	switch c.rule.Decide(&c.gather, c.dE, c.rand) {
	case Moved:
		c.commitMove(k, i)
		return Moved
	case Swapped:
		c.cfg.CommitSwap(i, &c.gather)
		c.stats.Swaps++
		return Swapped
	}
	c.stats.Rejected++
	return Rejected
}

// commitMove commits the accepted move of slot k's particle, at window
// index i, from the gather it was decided on.
func (c *Chain) commitMove(k, i int) {
	ow := c.cfg.Window()
	j, err := c.cfg.CommitMove(i, &c.gather)
	if err != nil {
		panic("core: invariant violation applying validated move: " + err.Error())
	}
	if c.cfg.Window() != ow {
		c.rebase(ow)
	}
	c.slots[k] = int32(j)
	c.stats.Moves++
}

// ReplaceConfig swaps the chain's configuration for cfg — which must be
// nonempty and connected — preserving the chain's parameters, random
// stream and statistics, and rebuilding the particle list. It is how a
// sharded run's result is folded back into a serial chain: the chain
// continues from the new configuration exactly as if its own steps had
// produced it.
func (c *Chain) ReplaceConfig(cfg *psys.Config) error {
	if cfg.N() == 0 {
		return ErrEmptyConfig
	}
	if !cfg.Connected() {
		return ErrDisconnected
	}
	return c.setConfig(cfg)
}

// AbsorbStats folds externally performed proposal statistics (a sharded
// run over this chain's configuration) into the chain's own counters.
// The probe baseline advances by the same amounts, so work already
// published to a probe by its performer is not published twice.
func (c *Chain) AbsorbStats(st Stats) {
	c.stats.Steps += st.Steps
	c.stats.Moves += st.Moves
	c.stats.Swaps += st.Swaps
	c.stats.Rejected += st.Rejected
	c.probeBase.Steps += st.Steps
	c.probeBase.Moves += st.Moves
	c.probeBase.Swaps += st.Swaps
	c.probeBase.Rejected += st.Rejected
}

// Run performs steps iterations: RunContext without cancellation.
func (c *Chain) Run(steps uint64) { c.RunContext(context.Background(), steps) }

// cancelCheckInterval is the number of steps RunContext performs between
// polls of the context: large enough that the poll is free relative to the
// chain work, small enough that cancellation lands within microseconds.
const cancelCheckInterval = 8192

// RunContext performs up to steps iterations, polling ctx between batches
// of cancelCheckInterval iterations, and flushes the probe before it
// returns. It returns the number of iterations actually performed,
// together with ctx.Err() if the run was cut short. Because the poll
// happens only at batch boundaries, a cancelled run leaves the chain in a
// valid state from which it can be resumed or checkpointed.
func (c *Chain) RunContext(ctx context.Context, steps uint64) (uint64, error) {
	defer c.FlushProbe()
	var done uint64
	for done < steps {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		batch := min(steps-done, cancelCheckInterval)
		for i := uint64(0); i < batch; i++ {
			c.Step()
		}
		done += batch
	}
	return done, nil
}
