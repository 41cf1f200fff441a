// Package amoebot is the distributed runtime for the amoebot model (§2.1):
// particles are anonymous agents with strictly local views that execute
// the distributed algorithm A — chain M's local rule — under an
// asynchronous scheduler, for any registered model without a schedule.
//
// Following the model's atomicity assumption, one activation is one atomic
// action: the activated particle reads its local neighborhood, performs
// bounded computation, and applies at most one movement (expansion plus
// contraction, i.e. one iteration of Algorithm 1) or swap. The decision
// is the chain's own: an activation packs its 10-cell pair neighborhood
// into a psys.PairGather and decides through the bound model's core.Rule,
// so the runtime has no arithmetic of its own. Concurrent activations are
// allowed; the runtime resolves conflicts with striped region locks over
// each activation's read/write set, which makes every concurrent execution
// equivalent to some sequential ordering of activations — the classical
// serializability argument the paper invokes.
//
// The arena is a bounded hexagonal region (physical systems are bounded);
// proposals that would leave the arena are rejected. One scheduler, Run,
// drives any number of workers; away from the arena edge a one-worker run
// is core.Chain step for step: particle ids follow the chain's slot order
// and activations draw exactly as Step does.
package amoebot

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sops/internal/core"
	"sops/internal/lattice"
	"sops/internal/psys"
	"sops/internal/rng"
	"sops/internal/telemetry"
)

// numStripes is the number of region locks; activations whose cell sets
// map to disjoint stripe sets proceed in parallel.
const numStripes = 128

// cell is one arena location. Cells are only accessed while holding the
// stripe locks covering them.
type cell struct {
	occupied bool
	color    psys.Color
	particle int32 // particle id, valid when occupied
}

// Particle is one agent. Its position and scratch fields are owned by its
// own activations, serialized by mu.
type Particle struct {
	id     int32
	mu     sync.Mutex
	pos    lattice.Point
	frozen atomic.Bool
	// orientation is the particle's private rotation of port labels,
	// fixed at creation: particles share no compass (§2.1). Only the
	// agent-program path (ActivateAgent) uses it.
	orientation lattice.Direction
	// gather and dE are the activation's decision scratch, kept here so
	// passing them through the model interface never allocates.
	gather psys.PairGather
	dE     []int8
}

// World is the shared arena plus the particle registry.
type World struct {
	rule   *core.Rule
	coup   []float64 // the bound model's full coupling vector
	radius int
	side   int
	grid   []cell
	parts  []*Particle

	// global is held for reading by activations and for writing by
	// Snapshot, so snapshots observe quiescent states only.
	global  sync.RWMutex
	stripes [numStripes]sync.Mutex

	// lockDelay, when set, is invoked by every activation while it holds
	// its region locks — the fault layer's stall-injection point.
	lockDelay atomic.Pointer[func()]

	// auditEvery configures the invariant-audit cadence: the schedulers
	// audit after every auditEvery performed activations (0 = disabled).
	auditEvery atomic.Uint64
	auditCount atomic.Uint64
	audits     atomic.Uint64

	// probe, when set, receives activation statistics from the schedulers
	// in per-source batches, making progress observable while a (possibly
	// faulty) run is in flight.
	probe atomic.Pointer[telemetry.Probe]
}

// ErrOutOfArena is returned when the initial configuration does not fit the
// arena.
var ErrOutOfArena = errors.New("amoebot: configuration outside arena")

// NewWorld builds an arena of the given hexagonal radius around the origin
// holding cfg's particles, running the separation dynamics at
// params.Lambda and params.Gamma. A radius of 0 chooses one automatically
// (diameter of the configuration plus generous slack for drift).
func NewWorld(cfg *psys.Config, params core.Params, radius int) (*World, error) {
	return NewWorldWithModel(cfg, params, core.Separation, []float64{params.Lambda, params.Gamma}, radius)
}

// NewWorldWithModel is NewWorld running model m with the full coupling
// vector coup (nil selects the model's defaults), bound as
// core.NewWithModel binds it; params supplies the seed and the swap
// switch. A model with a schedule (core.Scheduler) is rejected: concurrent
// activations have no global step order at which to change couplings.
func NewWorldWithModel(cfg *psys.Config, params core.Params, m core.Model, coup []float64, radius int) (*World, error) {
	m, params, coup, err := core.BindModel(m, cfg.NumColors(), params, coup)
	if err != nil {
		return nil, err
	}
	if _, ok := m.(core.Scheduler); ok {
		return nil, fmt.Errorf("amoebot: model %q has a schedule, and concurrent activations have no global step order at which to change its couplings", m.Name())
	}
	if cfg.N() == 0 {
		return nil, core.ErrEmptyConfig
	}
	if !cfg.Connected() {
		return nil, core.ErrDisconnected
	}
	pts := cfg.Points()
	maxDist := 0
	for _, p := range pts {
		if d := (lattice.Point{}).Dist(p); d > maxDist {
			maxDist = d
		}
	}
	if radius == 0 {
		radius = 3*maxDist + cfg.N() + 8
	}
	if maxDist >= radius {
		return nil, ErrOutOfArena
	}
	w := &World{
		coup:   coup,
		radius: radius,
		side:   2*radius + 1,
	}
	k := m.NumExponents()
	w.rule = core.NewRule(m, coup[:k], params.DisableSwaps)
	w.grid = make([]cell, w.side*w.side)
	dE := make([]int8, len(pts)*k)
	orient := rng.New(params.Seed ^ 0xa5a5a5a5a5a5a5a5)
	for i, p := range pts {
		col, _ := cfg.At(p)
		c := w.cellAt(p)
		c.occupied = true
		c.color = col
		c.particle = int32(i)
		w.parts = append(w.parts, &Particle{
			id:          int32(i),
			pos:         p,
			orientation: lattice.Direction(orient.Intn(lattice.NumDirections)),
			dE:          dE[i*k : (i+1)*k],
		})
	}
	return w, nil
}

// SetOrientation overrides a particle's private port orientation; intended
// for tests that compare the agent program against the direct
// implementation. Not safe to call while a scheduler is running.
func (w *World) SetOrientation(id int, d lattice.Direction) {
	w.parts[id].orientation = d
}

// inArena reports whether p lies within the hexagonal arena.
func (w *World) inArena(p lattice.Point) bool {
	return (lattice.Point{}).Dist(p) <= w.radius
}

// cellAt returns the cell storage for p; p must satisfy |Q|,|R| ≤ radius
// (all hexagon points do).
func (w *World) cellAt(p lattice.Point) *cell {
	return &w.grid[(p.R+w.radius)*w.side+(p.Q+w.radius)]
}

// stripeOf maps a point to its lock stripe.
func stripeOf(p lattice.Point) int {
	h := uint64(uint32(p.Q))*0x9e3779b97f4a7c15 + uint64(uint32(p.R))*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	return int(h % numStripes)
}

// N returns the number of particles.
func (w *World) N() int { return len(w.parts) }

// SetFrozen marks a particle as crash-stopped (or revives it): a frozen
// particle ignores its own activations but remains physically present, is
// still read by neighbors, and still participates passively in swaps
// initiated by neighbors — the crash-stop failure model for stationary
// faulty robots. Safe to call concurrently with a running scheduler.
func (w *World) SetFrozen(id int, frozen bool) {
	w.parts[id].frozen.Store(frozen)
}

// Frozen reports whether a particle is crash-stopped.
func (w *World) Frozen(id int) bool { return w.parts[id].frozen.Load() }

// Energy returns the bound model's Hamiltonian of a quiescent snapshot.
func (w *World) Energy() float64 { return w.rule.Model().Energy(w.Snapshot(), w.coup) }

// Snapshot returns the current configuration. It briefly excludes all
// activations, so it always observes a quiescent (serializable) state.
func (w *World) Snapshot() *psys.Config {
	w.global.Lock()
	defer w.global.Unlock()
	particles := make([]psys.Particle, len(w.parts))
	for i, p := range w.parts {
		particles[i] = psys.Particle{Pos: p.pos, Color: w.cellAt(p.pos).color}
	}
	cfg, err := psys.NewFrom(particles)
	if err != nil {
		panic(fmt.Sprintf("amoebot: corrupt world: %v", err))
	}
	return cfg
}

// SetLockDelay installs (or, with nil, removes) a hook invoked by every
// activation while its region locks are held. The fault injector uses it to
// stretch lock-hold windows; the hook must not activate particles or take
// world locks. Safe to call while a scheduler is running.
func (w *World) SetLockDelay(f func()) {
	if f == nil {
		w.lockDelay.Store(nil)
		return
	}
	w.lockDelay.Store(&f)
}

// SetAuditEvery configures the invariant-audit cadence: the schedulers call
// Audit after every n performed activations (and after every injected
// crash-recovery). n = 0 disables cadenced audits. Safe to call while a run
// is in progress.
func (w *World) SetAuditEvery(n uint64) { w.auditEvery.Store(n) }

// SetProbe attaches a telemetry probe: subsequent runs publish activation
// counts (performed, moves, swaps, and dropped-or-rejected slots) into it
// in per-source batches. Passing nil detaches. Safe to call while a run is
// in progress; sources pick the change up at their next batch boundary.
func (w *World) SetProbe(p *telemetry.Probe) { w.probe.Store(p) }

// Audits reports how many invariant audits have run so far.
func (w *World) Audits() uint64 { return w.audits.Load() }

// Audit excludes all activations and verifies the world's integrity: the
// particle registry and the grid must agree exactly, and the quiescent
// configuration must satisfy every chain invariant (counts, connectivity,
// hole-freeness, the e = 3n − p − 3 identity) via psys.CheckInvariants.
// It returns nil on a healthy world and a *psys.InvariantError otherwise.
func (w *World) Audit() error {
	cfg, err := w.auditSnapshot()
	if err != nil {
		return err
	}
	w.audits.Add(1)
	return cfg.CheckInvariants()
}

// auditSnapshot takes a quiescent snapshot while cross-checking the
// particle registry against the grid.
func (w *World) auditSnapshot() (*psys.Config, error) {
	w.global.Lock()
	defer w.global.Unlock()
	particles := make([]psys.Particle, len(w.parts))
	for i, p := range w.parts {
		c := w.cellAt(p.pos)
		if !c.occupied {
			return nil, &psys.InvariantError{Property: "registry",
				Detail: fmt.Sprintf("particle %d at %v sits on a vacant grid cell", p.id, p.pos)}
		}
		if c.particle != p.id {
			return nil, &psys.InvariantError{Property: "registry",
				Detail: fmt.Sprintf("grid cell %v claims particle %d, registry says %d", p.pos, c.particle, p.id)}
		}
		particles[i] = psys.Particle{Pos: p.pos, Color: c.color}
	}
	cfg, err := psys.NewFrom(particles)
	if err != nil {
		return nil, &psys.InvariantError{Property: "registry",
			Detail: fmt.Sprintf("registry does not form a configuration: %v", err)}
	}
	return cfg, nil
}

// maybeAudit runs a cadenced audit if the performed-activation counter just
// crossed a multiple of the configured cadence.
func (w *World) maybeAudit() error {
	every := w.auditEvery.Load()
	if every == 0 {
		return nil
	}
	if w.auditCount.Add(1)%every != 0 {
		return nil
	}
	return w.Audit()
}
