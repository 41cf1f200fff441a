package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"sops/internal/lattice"
	"sops/internal/psys"
	"sops/internal/rng"
)

// Sharded runs Markov chain M concurrently: P workers propose moves over
// disjoint horizontal bands of the configuration, held in a psys.TileStore,
// with edge conflicts resolved by striped region locks — the
// serializability machinery proven in internal/amoebot. The concurrency
// argument mirrors the asynchronous-activation model of Cannon et al.:
// proposals whose joint (l, lp) neighborhoods are disjoint commute, so any
// concurrent execution under the discipline below is equivalent to some
// serial activation order, which the accepted-op ticket log lets tests
// replay and verify.
//
// The discipline, per epoch (a barrier-delimited batch of proposals):
//
//   - Ownership. Particles are bucketed into P bands of consecutive R rows,
//     cut at population quantiles; worker w proposes only for particles it
//     owns, from its own deterministic rng stream (rng.SeedAt(Seed, w)).
//   - Interior fast path. A proposal whose particle lies ≥ bandMargin rows
//     inside its band touches cells (reads within distance 2, writes within
//     distance 1) that no other worker can touch this epoch, and runs
//     lock-free.
//   - Boundary locking. Any other proposal locks the sorted stripe set of
//     its 10-cell region (psys.PairCells) before gathering, so overlapping
//     boundary proposals serialize and are ordered by lock acquisition.
//   - Collar. An accepted move may carry a particle at most bandCollar rows
//     past its band (the proposal itself was made from within the collar);
//     a move landing outside the collar ends the epoch for all workers, and
//     the next epoch re-buckets ownership. bandMargin = 5 strictly
//     separates the cells reachable by collar wanderers (reads ≤ collar+1,
//     writes ≤ collar rows past the boundary) from the interior fast path
//     of the neighboring band, so locked and lock-free proposals never
//     touch the same cell — the race detector holds this arithmetic to
//     account in the serializability audit tests.
//
// A Sharded executor is not deterministic across runs (OS scheduling picks
// the interleaving), but every run is serializable; the 1-worker path in
// sops.RunSpec keeps using the serial Chain, which is bit-identical to the
// committed golden trajectories.
type Sharded struct {
	store   *psys.TileStore
	params  Params
	workers int
	opts    ShardedOptions

	rngs []*rng.Buffered

	// positions and scratch double-buffer the master particle list; each
	// epoch buckets positions into per-band segments of scratch and swaps.
	positions []lattice.Point
	scratch   []lattice.Point
	hist      []int32 // per-R-row population, reused across epochs
	bandOfR   []int32 // R row → band index, reused across epochs

	stats Stats
	probe Probe

	ticket atomic.Uint64
	wlogs  [][]MoveRecord

	locks [numStripes]sync.Mutex

	// Dynamics state, mirroring Chain: every worker decides through the
	// shared read-only rule. For scheduled models Run clamps epoch budgets
	// at schedule boundaries and retunes the rule's thresholds between
	// epochs — workers never observe a table change mid-epoch.
	// stepOff is the absolute step count of the run this executor
	// continues (ShardedOptions.StepOffset), so schedules resume exactly.
	rule    Rule
	coup    []float64
	coupNow []float64
	sched   Scheduler
	nextReb uint64
	stepOff uint64
}

// ShardedOptions configures a sharded executor.
type ShardedOptions struct {
	// Workers is the number of proposal workers P; values < 1 mean 1.
	Workers int
	// Seed is the root seed; worker w draws from the stateless stream
	// rng.SeedAt(Seed, w), the same derivation scheme as sweep cells.
	Seed uint64
	// RecordLog keeps a per-worker log of accepted operations with
	// serialization tickets, retrievable via Log. Costs one atomic
	// increment per accepted operation; intended for equivalence audits.
	RecordLog bool
	// EpochProposals caps the proposals per epoch (re-bucketing
	// granularity); 0 picks an automatic value of ~4n.
	EpochProposals uint64
	// StepOffset is the absolute step count of the run this executor
	// continues. Only scheduled models read it: their effective couplings
	// are a function of StepOffset plus the proposals performed so far, so
	// a resumed run anneals exactly where the checkpointed one left off.
	StepOffset uint64
}

// OpKind distinguishes logged operations.
type OpKind uint8

// Logged operation kinds.
const (
	OpMove OpKind = iota + 1
	OpSwap
)

// MoveRecord is one accepted operation of a sharded run. Tickets are
// acquired while the operation's region is still held (or, for interior
// operations, immediately at application), so sorting a run's records by
// Ticket yields a serial order equivalent to the concurrent execution:
// conflicting operations are ordered by lock acquisition, and commuting
// operations by each worker's program order.
type MoveRecord struct {
	Ticket uint64
	Worker int
	Kind   OpKind
	L, Lp  lattice.Point
}

// Band geometry constants; see the type comment for the separation
// argument that ties them together.
const (
	// bandCollar is how many rows past its band an accepted move may
	// carry a particle before the epoch ends.
	bandCollar = 2
	// bandMargin is the depth inside its band a particle must have for
	// its proposal to skip region locking.
	bandMargin = 5
	// numStripes is the size of the boundary lock table.
	numStripes = 256
	// shardProbeBatch matches the serial chain's amortized probe cadence.
	shardProbeBatch = 1024
	// epochMin and epochMax clamp the automatic epoch size: large enough
	// to amortize the O(n) re-bucketing, small enough to bound the time
	// between cancellation polls and ownership rebalances.
	epochMin = 8192
	epochMax = 1 << 21
)

// stripeOf hashes a lattice point into the boundary lock table.
func stripeOf(p lattice.Point) int {
	h := uint64(uint32(p.Q))*0x9e3779b97f4a7c15 + uint64(uint32(p.R))*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	return int(h & (numStripes - 1))
}

// NewSharded builds a sharded executor over a copy of cfg, which must be
// nonempty and connected, running the separation dynamics. The original
// cfg is not retained.
func NewSharded(cfg *psys.Config, params Params, opts ShardedOptions) (*Sharded, error) {
	return NewShardedWithModel(cfg, params, Separation, []float64{params.Lambda, params.Gamma}, opts)
}

// NewShardedWithModel builds a sharded executor over a copy of cfg
// running model m with the given full coupling vector (nil selects the
// model's defaults). Every worker makes its decisions through the same
// shared, read-only rule: the bound model's shared validity table and
// thresholds computed at init (and, for scheduled models, recomputed
// between epochs at stage boundaries).
func NewShardedWithModel(cfg *psys.Config, params Params, m Model, coup []float64, opts ShardedOptions) (*Sharded, error) {
	if cfg.N() == 0 {
		return nil, ErrEmptyConfig
	}
	if !cfg.Connected() {
		return nil, ErrDisconnected
	}
	m, params, coup, err := BindModel(m, cfg.NumColors(), params, coup)
	if err != nil {
		return nil, err
	}
	positions := cfg.Points()
	opts.Workers = max(opts.Workers, 1)
	s := &Sharded{
		store:     psys.NewTileStoreFrom(cfg),
		params:    params,
		workers:   opts.Workers,
		opts:      opts,
		positions: positions,
		scratch:   make([]lattice.Point, len(positions)),
		rngs:      make([]*rng.Buffered, opts.Workers),
		wlogs:     make([][]MoveRecord, opts.Workers),
		coup:      coup,
		coupNow:   coup,
		stepOff:   opts.StepOffset,
		nextReb:   math.MaxUint64,
	}
	s.rule = newRule(m, params.DisableSwaps)
	if sched, ok := m.(Scheduler); ok {
		s.sched, s.coupNow = sched, append([]float64(nil), coup...)
	}
	s.retune(s.stepOff)
	for w := range s.rngs {
		s.rngs[w] = rng.NewBuffered(rng.SeedAt(opts.Seed, uint64(w)))
	}
	return s, nil
}

// retune recomputes the effective couplings for absolute step abs
// (scheduled models only) and recomputes the shared acceptance
// thresholds.
// Called only between epochs (or at construction), never while workers
// run.
func (s *Sharded) retune(abs uint64) {
	k := s.rule.model.NumExponents()
	if s.sched != nil {
		s.nextReb = s.sched.Effective(s.coup, abs, s.coupNow[:k])
	}
	s.rule.retune(s.coupNow[:k])
}

// Model returns the dynamics the executor runs.
func (s *Sharded) Model() Model { return s.rule.model }

// Params returns the executor's bias parameters.
func (s *Sharded) Params() Params { return s.params }

// Workers returns the worker count P.
func (s *Sharded) Workers() int { return s.workers }

// N returns the particle count.
func (s *Sharded) N() int { return len(s.positions) }

// Stats returns cumulative proposal statistics across all workers.
func (s *Sharded) Stats() Stats { return s.stats }

// Store returns the live tile store. Callers must treat it as read-only
// and must not call Run concurrently with reads.
func (s *Sharded) Store() *psys.TileStore { return s.store }

// Snapshot materializes the current configuration as a dense Config.
func (s *Sharded) Snapshot() (*psys.Config, error) { return s.store.ToConfig() }

// SetProbe attaches a telemetry probe; workers publish their statistics
// into it in amortized batches, like the serial chain. The probe must be
// safe for concurrent use (*telemetry.Probe is). Attach before Run.
func (s *Sharded) SetProbe(p Probe) { s.probe = p }

// Log returns the accepted-operation log of all runs so far, sorted by
// serialization ticket. Empty unless ShardedOptions.RecordLog is set.
func (s *Sharded) Log() []MoveRecord {
	var out []MoveRecord
	for _, wl := range s.wlogs {
		out = append(out, wl...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ticket < out[j].Ticket })
	return out
}

// ErrNoProgress reports an epoch that could not perform any proposals —
// impossible for a nonempty configuration and a positive budget, so it
// indicates executor state corruption rather than a caller mistake.
var ErrNoProgress = errors.New("core: sharded epoch made no progress")

// Run performs up to steps proposals across the workers, polling ctx
// between epochs. It returns the proposals actually performed, with
// ctx.Err() if the run was cut short.
func (s *Sharded) Run(ctx context.Context, steps uint64) (uint64, error) {
	epochCap := s.opts.EpochProposals
	if epochCap == 0 {
		epochCap = 4 * uint64(len(s.positions))
		if epochCap < epochMin {
			epochCap = epochMin
		}
		if epochCap > epochMax {
			epochCap = epochMax
		}
	}
	var done uint64
	for done < steps {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		budget := epochCap
		if steps-done < budget {
			budget = steps - done
		}
		if s.sched != nil {
			// Rebuild tables if an earlier epoch carried the run up to a
			// stage boundary, then clamp this epoch's budget so no worker
			// proposes past the next boundary — every proposal of an epoch
			// runs under the effective couplings of the epoch's starting
			// step, which keeps the schedule exact without per-step
			// coordination (workers never exceed their budget share).
			abs := s.stepOff + s.stats.Steps
			if abs >= s.nextReb {
				s.retune(abs)
			}
			if room := s.nextReb - abs; s.nextReb != math.MaxUint64 && room < budget {
				budget = room
			}
		}
		n := s.runEpoch(budget)
		if n == 0 {
			return done, ErrNoProgress
		}
		done += n
	}
	return done, nil
}

// workerResult carries one worker's epoch outcome back to the driver.
type workerResult struct {
	stats Stats
	_     [64 - 32%64]byte // avoid false sharing between worker slots
}

// runEpoch re-buckets ownership, runs every worker for its share of
// budget, and returns the proposals performed.
func (s *Sharded) runEpoch(budget uint64) uint64 {
	bandLo, bandHi, parts := s.partition()
	n := uint64(len(s.positions))

	// Budgets proportional to band population, so expected activation
	// rates stay uniform across particles; the remainder goes to the
	// most populated band.
	budgets := make([]uint64, s.workers)
	var assigned uint64
	big := 0
	for w := range budgets {
		budgets[w] = budget * uint64(len(parts[w])) / n
		assigned += budgets[w]
		if len(parts[w]) > len(parts[big]) {
			big = w
		}
	}
	budgets[big] += budget - assigned

	results := make([]workerResult, s.workers)
	var escape atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		if len(parts[w]) == 0 || budgets[w] == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s.runWorkerModel(w, parts[w], bandLo[w], bandHi[w], budgets[w], &escape, &results[w])
		}(w)
	}
	wg.Wait()

	var doneSteps uint64
	for w := range results {
		st := results[w].stats
		doneSteps += st.Steps
		s.stats.Steps += st.Steps
		s.stats.Moves += st.Moves
		s.stats.Swaps += st.Swaps
		s.stats.Rejected += st.Rejected
	}
	return doneSteps
}

// partition buckets the master particle list into per-band segments of
// the scratch buffer, cutting bands at population quantiles of the R
// coordinate, and swaps the buffers. It returns each band's [lo, hi) row
// range and particle segment.
func (s *Sharded) partition() (bandLo, bandHi []int, parts [][]lattice.Point) {
	n := len(s.positions)
	minR, maxR := s.positions[0].R, s.positions[0].R
	for _, p := range s.positions {
		if p.R < minR {
			minR = p.R
		}
		if p.R > maxR {
			maxR = p.R
		}
	}
	width := maxR - minR + 1
	if cap(s.hist) < width {
		s.hist = make([]int32, width)
		s.bandOfR = make([]int32, width)
	}
	hist := s.hist[:width]
	bandOfR := s.bandOfR[:width]
	for i := range hist {
		hist[i] = 0
	}
	for _, p := range s.positions {
		hist[p.R-minR]++
	}

	// Assign rows to bands so band b closes once the running population
	// reaches its quantile (b+1)·n/P; whole rows stay together.
	P := s.workers
	bandLo = make([]int, P)
	bandHi = make([]int, P)
	counts := make([]int, P)
	b := 0
	acc := 0
	for r := 0; r < width; r++ {
		for b+1 < P && acc >= (b+1)*n/P && acc > 0 {
			b++
		}
		bandOfR[r] = int32(b)
		counts[b] += int(hist[r])
		acc += int(hist[r])
	}
	// Band row ranges: contiguous by construction; empty bands collapse
	// to zero-width ranges at their predecessor's boundary.
	row := 0
	for w := 0; w < P; w++ {
		bandLo[w] = minR + row
		for row < width && bandOfR[row] == int32(w) {
			row++
		}
		bandHi[w] = minR + row
	}

	// Bucket into scratch segments.
	offs := make([]int, P)
	sum := 0
	for w := 0; w < P; w++ {
		offs[w] = sum
		sum += counts[w]
	}
	parts = make([][]lattice.Point, P)
	for w := 0; w < P; w++ {
		parts[w] = s.scratch[offs[w] : offs[w] : offs[w]+counts[w]]
	}
	for _, p := range s.positions {
		w := bandOfR[p.R-minR]
		parts[w] = append(parts[w], p)
	}
	s.positions, s.scratch = s.scratch[:n], s.positions
	return bandLo, bandHi, parts
}

// lockRegion locks the stripes of the 10-cell region of a proposal at
// (l, dir) in ascending order, storing the deduplicated stripe set in
// stripes and returning how many were locked.
func (s *Sharded) lockRegion(l lattice.Point, dir lattice.Direction, stripes *[10]int) int {
	cells := psys.PairCells(l, dir)
	k := 0
	for _, p := range cells {
		st := stripeOf(p)
		dup := false
		for i := 0; i < k; i++ {
			if stripes[i] == st {
				dup = true
				break
			}
		}
		if !dup {
			// Insertion sort keeps the set ascending for deadlock-free
			// acquisition.
			i := k
			for i > 0 && stripes[i-1] > st {
				stripes[i] = stripes[i-1]
				i--
			}
			stripes[i] = st
			k++
		}
	}
	for i := 0; i < k; i++ {
		s.locks[stripes[i]].Lock()
	}
	return k
}

func (s *Sharded) unlockRegion(stripes *[10]int, k int) {
	for i := k - 1; i >= 0; i-- {
		s.locks[stripes[i]].Unlock()
	}
}

// runWorkerModel performs up to budget proposals for one band. parts is
// the worker's owned particle segment (updated in place as moves are
// accepted), [lo, hi) its row range. Each proposal is decided by the
// shared rule, with a per-worker exponent scratch vector; the rule's
// tables are read-only for the whole epoch, and models are required to be
// safe for concurrent use.
func (s *Sharded) runWorkerModel(w int, parts []lattice.Point, lo, hi int, budget uint64, escape *atomic.Bool, res *workerResult) {
	r := s.rngs[w]
	single := s.workers == 1
	record := s.opts.RecordLog
	lockFreeLo, lockFreeHi := lo+bandMargin, hi-bandMargin
	var st Stats
	var flushed Stats
	var stripes [10]int
	wlog := s.wlogs[w]
	dE := make([]int8, s.rule.model.NumExponents())
	var g psys.PairGather

	sink := s.probe
	flush := func() {
		if sink == nil {
			return
		}
		sink.Add(st.Steps-flushed.Steps, st.Moves-flushed.Moves,
			st.Swaps-flushed.Swaps, st.Rejected-flushed.Rejected)
		flushed = st
	}

	for st.Steps < budget && !escape.Load() {
		st.Steps++
		idx := r.Intn(len(parts))
		l := parts[idx]
		dir := lattice.Direction(r.Intn(lattice.NumDirections))
		lp := l.Neighbor(dir)

		locked := 0
		if !single && (l.R < lockFreeLo || l.R >= lockFreeHi) {
			locked = s.lockRegion(l, dir, &stripes)
		}
		g = s.store.GatherPair(l, dir)
		o := s.rule.Decide(&g, dE, r)
		switch o {
		case Moved:
			s.store.CommitMove(l, &g)
			parts[idx] = lp
			st.Moves++
		case Swapped:
			s.store.CommitSwap(l, &g)
			st.Swaps++
		default:
			st.Rejected++
		}
		if record && o != Rejected {
			kind := OpMove
			if o == Swapped {
				kind = OpSwap
			}
			wlog = append(wlog, MoveRecord{Ticket: s.ticket.Add(1), Worker: w, Kind: kind, L: l, Lp: lp})
		}
		if locked > 0 {
			s.unlockRegion(&stripes, locked)
		}
		if o == Moved && (lp.R < lo-bandCollar || lp.R >= hi+bandCollar) {
			escape.Store(true)
			break
		}

		if st.Steps-flushed.Steps >= shardProbeBatch {
			flush()
		}
	}
	flush()
	s.wlogs[w] = wlog
	res.stats = st
}

// ReplayLog applies a ticket-sorted accepted-operation log to cfg
// through the reference kernel, validating every move with MoveValid
// before applying it. It is the serial half of the serializability
// audit: a log recorded by a sharded run, replayed onto the run's
// initial configuration, must pass validation and reproduce the run's
// final configuration exactly.
func ReplayLog(cfg *psys.Config, log []MoveRecord) error {
	for i, rec := range log {
		switch rec.Kind {
		case OpMove:
			if !cfg.MoveValid(rec.L, rec.Lp) {
				return fmt.Errorf("core: replay %d (ticket %d): move %v→%v invalid in serial order", i, rec.Ticket, rec.L, rec.Lp)
			}
			if err := cfg.ApplyMove(rec.L, rec.Lp); err != nil {
				return fmt.Errorf("core: replay %d (ticket %d): %w", i, rec.Ticket, err)
			}
		case OpSwap:
			cl, ok := cfg.At(rec.L)
			if !ok {
				return fmt.Errorf("core: replay %d (ticket %d): swap source %v vacant", i, rec.Ticket, rec.L)
			}
			cp, ok := cfg.At(rec.Lp)
			if !ok {
				return fmt.Errorf("core: replay %d (ticket %d): swap target %v vacant", i, rec.Ticket, rec.Lp)
			}
			if cl == cp {
				return fmt.Errorf("core: replay %d (ticket %d): logged swap of same-colored pair", i, rec.Ticket)
			}
			if err := cfg.ApplySwap(rec.L, rec.Lp); err != nil {
				return fmt.Errorf("core: replay %d (ticket %d): %w", i, rec.Ticket, err)
			}
		default:
			return fmt.Errorf("core: replay %d: unknown op kind %d", i, rec.Kind)
		}
	}
	return nil
}
