package amoebot

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"sops/internal/core"
	"sops/internal/metrics"
	"sops/internal/psys"
	"sops/internal/rng"
)

var benchSeed atomic.Uint64

// runSequential runs the scheduler at one worker without cancellation or
// faults, failing the test on an audit error.
func runSequential(t *testing.T, w *World, activations, seed uint64) Result {
	t.Helper()
	res, err := Run(context.Background(), w, activations, 1, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// rngFor hands each benchmark goroutine its own seeded source.
func rngFor(testing.TB) *rng.Buffered {
	return rng.NewBuffered(benchSeed.Add(1))
}

func newWorld(t testing.TB, counts []int, params core.Params) *World {
	t.Helper()
	cfg, err := core.Initial(core.LayoutSpiral, counts, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(cfg, params, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldValidation(t *testing.T) {
	cfg, err := core.Initial(core.LayoutSpiral, []int{5, 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorld(cfg, core.Params{Lambda: 0, Gamma: 1}, 0); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := NewWorld(psys.New(), core.Params{Lambda: 4, Gamma: 4}, 0); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewWorld(cfg, core.Params{Lambda: 4, Gamma: 4}, 2); err != ErrOutOfArena {
		t.Fatalf("tiny arena: %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	cfg, err := core.Initial(core.LayoutSpiral, []int{7, 8}, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.CanonicalKey()
	w, err := NewWorld(cfg, core.Params{Lambda: 4, Gamma: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Snapshot().CanonicalKey(); got != want {
		t.Fatalf("snapshot differs from initial configuration")
	}
}

func TestSequentialPreservesInvariants(t *testing.T) {
	w := newWorld(t, []int{10, 10}, core.Params{Lambda: 4, Gamma: 4})
	res := runSequential(t, w, 100000, 7)
	if res.Moves == 0 || res.Swaps == 0 {
		t.Fatalf("no activity: %+v", res)
	}
	snap := w.Snapshot()
	if !snap.Connected() {
		t.Fatal("disconnected after sequential run")
	}
	if !snap.HoleFree() {
		t.Fatal("hole created")
	}
	if snap.ColorCount(0) != 10 || snap.ColorCount(1) != 10 {
		t.Fatal("color counts changed")
	}
	if snap.N() != 20 {
		t.Fatal("particle count changed")
	}
}

// TestConcurrentPreservesInvariants exercises genuinely concurrent
// activations (run under -race in CI) and checks serializability-implied
// invariants on the quiescent snapshot.
func TestConcurrentPreservesInvariants(t *testing.T) {
	w := newWorld(t, []int{15, 15}, core.Params{Lambda: 4, Gamma: 4})
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	res, err := Run(context.Background(), w, 200000, workers, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves == 0 || res.Swaps == 0 {
		t.Fatalf("no activity: %+v", res)
	}
	snap := w.Snapshot()
	if !snap.Connected() {
		t.Fatal("disconnected after concurrent run")
	}
	if !snap.HoleFree() {
		t.Fatal("hole created under concurrency")
	}
	if snap.ColorCount(0) != 15 || snap.ColorCount(1) != 15 {
		t.Fatal("color counts changed under concurrency")
	}
}

func TestConcurrentWorkerValidation(t *testing.T) {
	w := newWorld(t, []int{3, 3}, core.Params{Lambda: 2, Gamma: 2})
	if _, err := Run(context.Background(), w, 10, 0, 1, nil); err != ErrNoWorkers {
		t.Fatalf("zero workers: %v", err)
	}
}

// TestRuntimeMatchesCentralizedChain compares the distributed runtime's
// stationary behavior against the centralized chain: with the same
// parameters, both must reach comparable segregation and compression on the
// same workload — the behavioral equivalence of M and its distributed
// translation A.
func TestRuntimeMatchesCentralizedChain(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	params := core.Params{Lambda: 4, Gamma: 4, Seed: 9}
	counts := []int{20, 20}

	cfg1, err := core.Initial(core.LayoutSpiral, counts, 3)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := core.New(cfg1, params)
	if err != nil {
		t.Fatal(err)
	}
	ch.Run(3000000)
	segChain := metrics.SegregationIndex(ch.Config())

	w := newWorld(t, counts, params)
	if _, err := Run(context.Background(), w, 3000000, 4, 10, nil); err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	segRuntime := metrics.SegregationIndex(snap)

	if segChain < 0.5 {
		t.Fatalf("centralized chain failed to separate: %v", segChain)
	}
	if segRuntime < 0.5 {
		t.Fatalf("distributed runtime failed to separate: %v", segRuntime)
	}
	if math.Abs(segChain-segRuntime) > 0.35 {
		t.Fatalf("segregation differs too much: chain %v vs runtime %v", segChain, segRuntime)
	}
	if a := metrics.Compression(snap); a > 2.5 {
		t.Fatalf("runtime compression %v too weak", a)
	}
}

// TestSequentialRuntimeIsChain pins that the sequential runtime is chain
// M: from the same configuration and seed, a one-worker activation loop
// and core.NewWithModel agree on every outcome for 10⁶ steps and end on
// the same configuration, and the scheduler itself, run at one worker,
// reaches the chain's state after its first 10⁵ steps. Particle ids follow the chain's slot
// order and each activation draws as Chain.Step does, so the runtime
// inherits the chain's exact-π tests. The default arena is far wider than
// the drift of these runs, so no proposal targets a cell outside it.
func TestSequentialRuntimeIsChain(t *testing.T) {
	const steps, prefix = 1_000_000, 100_000
	for _, tc := range []struct {
		name   string
		counts []int
		model  core.Model
		coup   []float64
		noSwap bool
	}{
		{"separation", []int{20, 20}, core.Separation, []float64{4, 4}, false},
		{"separation-noswap", []int{20, 20}, core.Separation, []float64{4, 4}, true},
		{"k3", []int{14, 13, 13}, core.Separation, []float64{2, 1.5}, false},
		{"one-color", []int{40}, core.Separation, []float64{4, 1}, false},
		{"alignment-k3", []int{14, 13, 13}, core.Alignment, []float64{4, 6, 1.5}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			params := core.Params{DisableSwaps: tc.noSwap, Seed: 11}
			cfg, err := core.Initial(core.LayoutSpiral, tc.counts, 3)
			if err != nil {
				t.Fatal(err)
			}
			world := func() *World {
				w, err := NewWorldWithModel(cfg.Clone(), params, tc.model, tc.coup, 0)
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			w, ws := world(), world()
			ch, err := core.NewWithModel(cfg, params, tc.model, tc.coup)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.NewBuffered(params.Seed)
			n := w.N()
			var atPrefix core.Stats
			var prefixCfg *psys.Config
			for i := 1; i <= steps; i++ {
				if got, want := w.Activate(r.Intn(n), r), ch.Step(); got != want {
					t.Fatalf("step %d: runtime %v, chain %v", i, got, want)
				}
				if i == prefix {
					atPrefix, prefixCfg = ch.Stats(), ch.Snapshot()
				}
			}
			if snap := w.Snapshot(); snap.CanonicalKey() != ch.Config().CanonicalKey() || !snap.Equal(ch.Config()) {
				t.Fatal("runtime and chain end on different configurations")
			}
			res := runSequential(t, ws, prefix, params.Seed)
			if res.Moves != atPrefix.Moves || res.Swaps != atPrefix.Swaps || res.Moves == 0 || !ws.Snapshot().Equal(prefixCfg) {
				t.Fatalf("one-worker Run %+v, chain %+v at step %d", res, atPrefix, prefix)
			}
		})
	}
}

func TestSequentialDeterminism(t *testing.T) {
	run := func() string {
		w := newWorld(t, []int{8, 8}, core.Params{Lambda: 3, Gamma: 3})
		runSequential(t, w, 50000, 42)
		return w.Snapshot().CanonicalKey()
	}
	if run() != run() {
		t.Fatal("sequential runtime not deterministic under fixed seed")
	}
}

func TestArenaBoundaryRejection(t *testing.T) {
	// A 2-particle system in a minimal arena: proposals off-arena must be
	// rejected without corruption.
	cfg, err := core.Initial(core.LayoutLine, []int{1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(cfg, core.Params{Lambda: 2, Gamma: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	runSequential(t, w, 20000, 5)
	snap := w.Snapshot()
	if snap.N() != 2 || !snap.Connected() {
		t.Fatal("tiny-arena run corrupted the system")
	}
}

func BenchmarkActivateSequential(b *testing.B) {
	w := newWorld(b, []int{50, 50}, core.Params{Lambda: 4, Gamma: 4})
	r := rngFor(b)
	n := w.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Activate(r.Intn(n), r)
	}
}

func BenchmarkActivateParallel(b *testing.B) {
	w := newWorld(b, []int{50, 50}, core.Params{Lambda: 4, Gamma: 4})
	n := w.N()
	b.RunParallel(func(pb *testing.PB) {
		r := rngFor(b)
		for pb.Next() {
			w.Activate(r.Intn(n), r)
		}
	})
}

// TestCrashStopParticles injects crash-stop failures: frozen particles
// never act, yet the system's invariants hold and the survivors still
// drive compression and separation around them.
func TestCrashStopParticles(t *testing.T) {
	w := newWorld(t, []int{15, 15}, core.Params{Lambda: 4, Gamma: 4})
	for id := 0; id < 5; id++ {
		w.SetFrozen(id, true)
	}
	if !w.Frozen(0) || w.Frozen(9) {
		t.Fatal("frozen flags wrong")
	}
	res, err := Run(context.Background(), w, 500000, 4, 13, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves == 0 {
		t.Fatal("survivors made no moves")
	}
	snap := w.Snapshot()
	if !snap.Connected() || !snap.HoleFree() {
		t.Fatal("invariants violated with crashed particles")
	}
	if snap.ColorCount(0) != 15 || snap.ColorCount(1) != 15 {
		t.Fatal("color counts changed")
	}
	// Separation still emerges despite the failures.
	if seg := metrics.SegregationIndex(snap); seg < 0.4 {
		t.Fatalf("segregation %v with 5 crashed particles", seg)
	}

	// Revive and keep going: still healthy.
	for id := 0; id < 5; id++ {
		w.SetFrozen(id, false)
	}
	if _, err := Run(context.Background(), w, 100000, 4, 14, nil); err != nil {
		t.Fatal(err)
	}
	snap = w.Snapshot()
	if !snap.Connected() || !snap.HoleFree() {
		t.Fatal("invariants violated after revival")
	}
}

// TestFrozenParticleNeverMoves pins the semantics: a frozen particle's
// position is immutable while frozen (its color may still change through
// neighbor-initiated swaps, which model the in-memory color exchange).
func TestFrozenParticleNeverMoves(t *testing.T) {
	w := newWorld(t, []int{10, 10}, core.Params{Lambda: 4, Gamma: 4})
	w.SetFrozen(3, true)
	pos := w.parts[3].pos
	runSequential(t, w, 200000, 21)
	if w.parts[3].pos != pos {
		t.Fatalf("frozen particle moved from %v to %v", pos, w.parts[3].pos)
	}
}
