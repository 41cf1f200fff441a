package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"sops/internal/lattice"
	"sops/internal/psys"
)

func mustInitial(t testing.TB, layout Layout, counts []int, seed uint64) *psys.Config {
	t.Helper()
	cfg, err := Initial(layout, counts, seed)
	if err != nil {
		t.Fatalf("Initial: %v", err)
	}
	return cfg
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name   string
		params Params
		ok     bool
	}{
		{"valid", Params{Lambda: 4, Gamma: 4}, true},
		{"unit", Params{Lambda: 1, Gamma: 1}, true},
		{"zero lambda", Params{Lambda: 0, Gamma: 4}, false},
		{"negative gamma", Params{Lambda: 4, Gamma: -1}, false},
		{"zero gamma", Params{Lambda: 4, Gamma: 0}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.params.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(psys.New(), Params{Lambda: 4, Gamma: 4}); err != ErrEmptyConfig {
		t.Fatalf("empty config: err = %v", err)
	}
	split := psys.New()
	if err := split.Place(lattice.Point{}, 0); err != nil {
		t.Fatal(err)
	}
	if err := split.Place(lattice.Point{Q: 5, R: 5}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := New(split, Params{Lambda: 4, Gamma: 4}); err != ErrDisconnected {
		t.Fatalf("disconnected config: err = %v", err)
	}
	line := mustInitial(t, LayoutLine, []int{3}, 1)
	if _, err := New(line, Params{Lambda: 0, Gamma: 1}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestInitialLayouts(t *testing.T) {
	for _, layout := range []Layout{LayoutSpiral, LayoutLine} {
		cfg := mustInitial(t, layout, []int{10, 10}, 42)
		if cfg.N() != 20 {
			t.Fatalf("layout %d: n=%d", layout, cfg.N())
		}
		if cfg.ColorCount(0) != 10 || cfg.ColorCount(1) != 10 {
			t.Fatalf("layout %d: color counts %d/%d", layout, cfg.ColorCount(0), cfg.ColorCount(1))
		}
		if !cfg.Connected() || !cfg.HoleFree() {
			t.Fatalf("layout %d: not connected hole-free", layout)
		}
	}
	if _, err := Initial(LayoutSpiral, []int{0, 0}, 1); err == nil {
		t.Fatal("empty counts accepted")
	}
	if _, err := Initial(Layout(99), []int{5}, 1); err == nil {
		t.Fatal("unknown layout accepted")
	}
	if _, err := Initial(LayoutSpiral, []int{-1, 2}, 1); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestInitialSeparatedIsSeparated(t *testing.T) {
	cfg, err := InitialSeparated([]int{25, 25})
	if err != nil {
		t.Fatal(err)
	}
	// Block assignment along the spiral yields far fewer heterogeneous
	// edges than a random mix (which would have ~half of ~120 edges).
	random := mustInitial(t, LayoutSpiral, []int{25, 25}, 0)
	if cfg.HetEdges() >= random.HetEdges() {
		t.Fatalf("separated start h=%d not below random h=%d", cfg.HetEdges(), random.HetEdges())
	}
}

func TestBichromatic(t *testing.T) {
	if c := Bichromatic(100); c[0] != 50 || c[1] != 50 {
		t.Fatalf("Bichromatic(100) = %v", c)
	}
	if c := Bichromatic(7); c[0] != 4 || c[1] != 3 {
		t.Fatalf("Bichromatic(7) = %v", c)
	}
}

func TestChainDeterminism(t *testing.T) {
	run := func() string {
		cfg := mustInitial(t, LayoutLine, []int{10, 10}, 7)
		ch, err := New(cfg, Params{Lambda: 4, Gamma: 4, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		ch.Run(20000)
		return ch.Config().CanonicalKey()
	}
	if run() != run() {
		t.Fatal("identical seeds produced different trajectories")
	}
}

// checkSlots audits the chain's particle list against its configuration's
// window: each slot names an occupied cell, no slot repeats, and there are
// n of them.
func checkSlots(t *testing.T, ch *Chain, label string) {
	t.Helper()
	cfg := ch.Config()
	if len(ch.slots) != cfg.N() {
		t.Fatalf("%s: %d slots for %d particles", label, len(ch.slots), cfg.N())
	}
	cells := cfg.Cells()
	seen := make([]bool, len(cells))
	for k, s := range ch.slots {
		if s < 0 || int(s) >= len(cells) || cells[s] == 0 {
			t.Fatalf("%s: slot %d names cell %d, which holds no particle", label, k, s)
		}
		if seen[s] {
			t.Fatalf("%s: slot %d repeats cell %d", label, k, s)
		}
		seen[s] = true
	}
}

func TestChainInvariants(t *testing.T) {
	// I1, I2, I8: after many steps from a line start, the system is
	// connected, hole-free, color-conserving, and the particle list
	// matches the configuration.
	cfg := mustInitial(t, LayoutLine, []int{15, 15}, 3)
	ch, err := New(cfg, Params{Lambda: 4, Gamma: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkSlots(t, ch, "new")
	for round := 0; round < 10; round++ {
		ch.Run(5000)
		c := ch.Config()
		if !c.Connected() {
			t.Fatalf("round %d: disconnected", round)
		}
		if !c.HoleFree() {
			t.Fatalf("round %d: hole present (line start is hole-free)", round)
		}
		if c.ColorCount(0) != 15 || c.ColorCount(1) != 15 {
			t.Fatalf("round %d: color counts changed", round)
		}
		if c.N() != 30 {
			t.Fatalf("round %d: particle count changed", round)
		}
		checkSlots(t, ch, fmt.Sprintf("round %d", round))
	}
	st := ch.Stats()
	if st.Steps != 50000 {
		t.Fatalf("steps = %d", st.Steps)
	}
	if st.Moves == 0 {
		t.Fatal("no moves accepted in 50000 steps")
	}
	if st.Swaps == 0 {
		t.Fatal("no swaps accepted in 50000 steps")
	}
	if st.Moves+st.Swaps+st.Rejected != st.Steps {
		t.Fatalf("stats do not add up: %+v", st)
	}
}

// TestChainSlotsAcrossRehome holds the slot invariants across an
// expanding λ = 0.25 run, checked right after every move that re-homes the
// window, and across ReplaceConfig onto a configuration with another
// window: the rebased list must name the same particles in the same order.
func TestChainSlotsAcrossRehome(t *testing.T) {
	ch, err := New(mustInitial(t, LayoutSpiral, []int{5, 5}, 4), Params{Lambda: 0.25, Gamma: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	points := func() []lattice.Point {
		out := make([]lattice.Point, len(ch.slots))
		for k, s := range ch.slots {
			out[k] = ch.cfg.Window().PointAt(int(s))
		}
		return out
	}
	rehomes := 0
	for step := 0; step < 2_000_000 && rehomes < 5; step++ {
		win, before := ch.cfg.Window(), points()
		moved := ch.Step() == Moved
		if ch.cfg.Window() == win {
			continue
		}
		rehomes++
		label := fmt.Sprintf("re-home %d at step %d", rehomes, step)
		if !moved {
			t.Fatalf("%s: the window changed on a step that moved nothing", label)
		}
		checkSlots(t, ch, label)
		after, changed := points(), 0
		for k := range after {
			if after[k] != before[k] {
				changed++
			}
		}
		if changed != 1 {
			t.Fatalf("%s: %d slots changed their particle, want the mover's alone", label, changed)
		}
	}
	if rehomes < 5 {
		t.Fatalf("only %d re-homes in 2,000,000 expanding steps", rehomes)
	}

	// Fold-back: a translated copy has a different window and the same
	// canonical order, so the slots must name the translated points.
	shift := lattice.Point{Q: 1000, R: -700}
	parts := ch.Config().Particles()
	for i := range parts {
		parts[i].Pos = parts[i].Pos.Add(shift)
	}
	moved, err := psys.NewFrom(parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.ReplaceConfig(moved); err != nil {
		t.Fatal(err)
	}
	checkSlots(t, ch, "after ReplaceConfig")
	for k, p := range points() {
		if p != parts[k].Pos {
			t.Fatalf("after ReplaceConfig: slot %d at %v, want %v in canonical order", k, p, parts[k].Pos)
		}
	}
	ch.Run(20_000)
	checkSlots(t, ch, "after ReplaceConfig and 20,000 steps")
}

// TestIndexGatherMatchesGeneral holds the chain's gather — GatherAt at a
// slot's window index, ten fixed-offset loads from the padded plane — to
// GatherPairFrom over the per-point read path, for every particle and
// direction of live chains, every 1,000 steps and right after every
// accepted move. At λ = 0.25 the configuration expands and
// particles reach depth 1, where ring cells fall off the window onto the
// border ring of the adjacent row or onto the plane's pad; the test
// requires that it checked such particles.
func TestIndexGatherMatchesGeneral(t *testing.T) {
	for _, lambda := range []float64{0.25, 1, 4} {
		depth1 := 0
		for _, n := range []int{3, 10, 60, 300} {
			ch, err := New(mustInitial(t, LayoutLine, Bichromatic(n), 2), Params{Lambda: lambda, Gamma: 2, Seed: uint64(n)})
			if err != nil {
				t.Fatal(err)
			}
			check := func(step, s int) {
				cfg := ch.Config()
				win := cfg.Window()
				p := win.PointAt(s)
				inner := lattice.Window{Min: win.Min.Add(lattice.Point{Q: 1, R: 1}), W: win.W - 2, H: win.H - 2}
				if !inner.Interior(p) {
					depth1++
				}
				for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
					if got, want := cfg.GatherAt(s, d), psys.GatherPairFrom(cfg.At, p, d); got != want {
						t.Fatalf("λ=%v n=%d step %d: GatherAt(%v, %v) = %+v, GatherPairFrom %+v", lambda, n, step, p, d, got, want)
					}
				}
			}
			for step := 0; step < 40_000; step++ {
				if ch.Step() != Moved && step%1000 != 999 {
					continue
				}
				for _, s := range ch.slots {
					check(step, int(s))
				}
			}
		}
		if lambda < 1 && depth1 == 0 {
			t.Fatalf("λ=%v: no particle checked at depth 1", lambda)
		}
		t.Logf("λ=%v: %d particle checks at depth 1", lambda, depth1)
	}
}

func TestChainCompresses(t *testing.T) {
	// With λ=4, γ=4 a 40-particle line (perimeter 78) must compress far
	// toward p_min(40)=22 within a modest number of steps.
	cfg := mustInitial(t, LayoutLine, []int{20, 20}, 1)
	p0 := cfg.Perimeter()
	ch, err := New(cfg, Params{Lambda: 4, Gamma: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ch.Run(400000)
	p1 := ch.Config().Perimeter()
	if p1 >= p0/2 {
		t.Fatalf("perimeter only improved from %d to %d", p0, p1)
	}
}

func TestChainSeparates(t *testing.T) {
	// With γ=4 the heterogeneous edge count must drop well below the
	// random-mixing level.
	cfg := mustInitial(t, LayoutSpiral, []int{25, 25}, 9)
	h0 := cfg.HetEdges()
	ch, err := New(cfg, Params{Lambda: 4, Gamma: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ch.Run(2000000)
	h1 := ch.Config().HetEdges()
	if h1 >= h0/2 {
		t.Fatalf("het edges only improved from %d to %d", h0, h1)
	}
}

func TestDisableSwapsNeverSwaps(t *testing.T) {
	cfg := mustInitial(t, LayoutSpiral, []int{10, 10}, 4)
	ch, err := New(cfg, Params{Lambda: 4, Gamma: 4, DisableSwaps: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ch.Run(100000)
	if ch.Stats().Swaps != 0 {
		t.Fatalf("swap occurred with swaps disabled: %+v", ch.Stats())
	}
}

func TestOutcomeString(t *testing.T) {
	for _, o := range []Outcome{Rejected, Moved, Swapped} {
		if o.String() == "" {
			t.Fatalf("empty string for outcome %d", o)
		}
	}
	if Outcome(77).String() != "Outcome(77)" {
		t.Fatal("unknown outcome formatting")
	}
}

func TestSnapshotIsIndependent(t *testing.T) {
	cfg := mustInitial(t, LayoutSpiral, []int{5, 5}, 4)
	ch, err := New(cfg, Params{Lambda: 4, Gamma: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	snap := ch.Snapshot()
	ch.Run(20000)
	if snap.Equal(ch.Config()) {
		t.Log("configuration returned to snapshot state; acceptable but unlikely")
	}
	if snap.N() != 10 {
		t.Fatal("snapshot corrupted by running chain")
	}
}

func BenchmarkChainStep(b *testing.B) {
	cfg := mustInitial(b, LayoutSpiral, Bichromatic(100), 1)
	ch, err := New(cfg, Params{Lambda: 4, Gamma: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Step()
	}
}

func BenchmarkChainStepMonochrome(b *testing.B) {
	cfg := mustInitial(b, LayoutSpiral, []int{100}, 1)
	ch, err := New(cfg, Params{Lambda: 4, Gamma: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Step()
	}
}

func TestEnergyDecreasesOnAverage(t *testing.T) {
	// The chain is a Metropolis sampler for the Gibbs measure of Energy:
	// from a maximal-energy line start, the running average energy must
	// fall substantially.
	cfg := mustInitial(t, LayoutLine, []int{20, 20}, 5)
	params := Params{Lambda: 4, Gamma: 4, Seed: 8}
	ch, err := New(cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	e0 := ch.Energy()
	ch.Run(500000)
	e1 := ch.Energy()
	if e1 >= e0-10 {
		t.Fatalf("energy did not drop: %v -> %v", e0, e1)
	}
	// Energy is consistent with the separation model's Hamiltonian.
	if got := Separation.Energy(ch.Config(), []float64{params.Lambda, params.Gamma}); got != e1 {
		t.Fatalf("Energy mismatch: %v vs %v", got, e1)
	}
}

func TestEnergyGibbsConsistency(t *testing.T) {
	// exp(−E) must reproduce the λ^e·γ^a stationary weight.
	cfg := mustInitial(t, LayoutSpiral, []int{5, 5}, 2)
	params := Params{Lambda: 3, Gamma: 2}
	w := math.Pow(params.Lambda, float64(cfg.Edges())) * math.Pow(params.Gamma, float64(cfg.HomEdges()))
	if got := math.Exp(-Separation.Energy(cfg, []float64{params.Lambda, params.Gamma})); math.Abs(got-w)/w > 1e-9 {
		t.Fatalf("exp(-E) = %v, λ^e γ^a = %v", got, w)
	}
}

// TestHoleTopologyConserved pins down a reproduction finding about
// Lemma 6. The locally checkable Properties 4 and 5 are symmetric in
// (l, l'), so a move that would eliminate a hole has a Prop-valid reverse
// that would create one; since hole creation is provably impossible from
// hole-free configurations ([6]), hole elimination is equally impossible
// under the literal conditions of the provided text. Empirically: from a
// holed start the hole deforms and shrinks (e.g. 7 cells to 1) but never
// disappears, at weak or strong bias; a deep single-cell hole is entirely
// frozen (filling it always violates Property 4). The "eventually
// eliminates any holes" part of Lemma 6 therefore relies on mechanics of
// the full version beyond Algorithm 1 as stated; like [6], this library
// runs experiments from hole-free starts, which the other half of Lemma 6
// (no new holes - heavily tested elsewhere) keeps hole-free forever.
func TestHoleTopologyConserved(t *testing.T) {
	for _, bias := range []float64{1.2, 4} {
		cfg := psys.New()
		for _, p := range lattice.Ring(lattice.Point{}, 2) {
			if err := cfg.Place(p, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range lattice.Ring(lattice.Point{}, 3) {
			if i%2 == 0 {
				if err := cfg.Place(p, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		if cfg.HoleFree() || !cfg.Connected() {
			t.Fatal("setup: want a connected configuration with a hole")
		}
		ch, err := New(cfg, Params{Lambda: bias, Gamma: bias, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 100; round++ {
			ch.Run(5000)
			if ch.Config().HoleFree() {
				t.Fatalf("bias %v: hole eliminated at round %d - Properties 4/5 no longer conserve hole topology; revisit Lemma 6 handling", bias, round)
			}
			if !ch.Config().Connected() {
				t.Fatalf("bias %v: disconnected at round %d", bias, round)
			}
		}
		if ch.Stats().Moves == 0 {
			t.Fatalf("bias %v: configuration completely frozen", bias)
		}
	}
}

// TestBareRingIsFrozen documents the extreme case: on a bare hexagonal
// ring every particle's two neighbors are locally disconnected, so no move
// satisfies Property 4 or 5 and the configuration is immobile (only color
// swaps can occur).
func TestBareRingIsFrozen(t *testing.T) {
	cfg := psys.New()
	for i, p := range lattice.Ring(lattice.Point{}, 1) {
		if err := cfg.Place(p, psys.Color(i%2)); err != nil {
			t.Fatal(err)
		}
	}
	ch, err := New(cfg, Params{Lambda: 2, Gamma: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ch.Run(100000)
	if ch.Stats().Moves != 0 {
		t.Fatalf("bare ring moved %d times", ch.Stats().Moves)
	}
	if ch.Stats().Swaps == 0 {
		t.Fatal("swaps should still occur on the frozen ring")
	}
}

// TestCheckpointResume: a resumed chain reproduces the checkpointed
// chain's exact future trajectory, through a JSON round trip.
func TestCheckpointResume(t *testing.T) {
	cfg := mustInitial(t, LayoutSpiral, []int{10, 10}, 6)
	ch, err := New(cfg, Params{Lambda: 4, Gamma: 4, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	ch.Run(30000)
	var cp Checkpoint
	ch.Checkpoint(&cp)
	blob, err := cp.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Checkpoint
	if err := decoded.UnmarshalJSON(blob); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stats() != ch.Stats() {
		t.Fatalf("stats not restored: %+v vs %+v", resumed.Stats(), ch.Stats())
	}
	ch.Run(30000)
	resumed.Run(30000)
	if ch.Config().CanonicalKey() != resumed.Config().CanonicalKey() {
		t.Fatal("resumed trajectory diverged")
	}
	if ch.Stats() != resumed.Stats() {
		t.Fatal("resumed statistics diverged")
	}
}

// TestCheckpointAfterRehome: a JSON checkpoint taken on the step right
// after a move re-homed the window resumes the identical trajectory, with
// the same selection order over the resumed configuration's own window.
func TestCheckpointAfterRehome(t *testing.T) {
	ch, err := New(mustInitial(t, LayoutSpiral, []int{5, 5}, 4), Params{Lambda: 0.25, Gamma: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for win := ch.cfg.Window(); ch.cfg.Window() == win; {
		if ch.Stats().Steps > 2_000_000 {
			t.Fatal("no re-home in 2,000,000 expanding steps")
		}
		ch.Step()
	}
	var cp Checkpoint
	ch.Checkpoint(&cp)
	blob, err := cp.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Checkpoint
	if err := decoded.UnmarshalJSON(blob); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	checkSlots(t, resumed, "resumed")
	for round := 0; round < 5; round++ {
		ch.Run(20_000)
		resumed.Run(20_000)
		if ch.Config().CanonicalKey() != resumed.Config().CanonicalKey() || ch.Stats() != resumed.Stats() {
			t.Fatalf("round %d: resumed trajectory diverged", round)
		}
		for k, s := range ch.slots {
			if p, q := ch.cfg.Window().PointAt(int(s)), resumed.cfg.Window().PointAt(int(resumed.slots[k])); p != q {
				t.Fatalf("round %d: slot %d at %v, resumed at %v", round, k, p, q)
			}
		}
	}
}

// TestResumeValidation: Resume, the one place a checkpoint's state is
// checked, refuses a missing configuration, a generator state that is
// not 32 bytes or is all zero, and an order that does not name every
// particle's cell once, each with ErrBadCheckpoint.
func TestResumeValidation(t *testing.T) {
	if _, err := Resume(&Checkpoint{}); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("empty checkpoint: %v, want ErrBadCheckpoint", err)
	}
	valid := func() *Checkpoint {
		ch, err := New(mustInitial(t, LayoutSpiral, []int{3, 3}, 1), Params{Lambda: 2, Gamma: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ch.Run(100)
		var cp Checkpoint
		ch.Checkpoint(&cp)
		return &cp
	}
	if _, err := Resume(valid()); err != nil {
		t.Fatal(err)
	}
	for name, spoil := range map[string]func(cp *Checkpoint){
		"short rng":     func(cp *Checkpoint) { cp.Rng = []byte("zz") },
		"zero rng":      func(cp *Checkpoint) { cp.Rng = make([]byte, 32) },
		"short order":   func(cp *Checkpoint) { cp.Slots = cp.Slots[1:] },
		"outside order": func(cp *Checkpoint) { cp.Slots[2] = -1 },
		"beyond order":  func(cp *Checkpoint) { cp.Slots[2] = int32(cp.Config.Window().Area()) },
		"vacant order":  func(cp *Checkpoint) { cp.Slots[2] = 0 }, // the window's corner, on its vacant border
		"repeat order":  func(cp *Checkpoint) { cp.Slots[2] = cp.Slots[4] },
	} {
		cp := valid()
		spoil(cp)
		if _, err := Resume(cp); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: %v, want ErrBadCheckpoint", name, err)
		}
	}
}

func TestRunContextCompletesLikeRun(t *testing.T) {
	mk := func() *Chain {
		ch, err := New(mustInitial(t, LayoutLine, []int{10, 10}, 21), Params{Lambda: 4, Gamma: 4, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	plain, ctxed := mk(), mk()
	plain.Run(30000)
	done, err := ctxed.RunContext(context.Background(), 30000)
	if err != nil || done != 30000 {
		t.Fatalf("RunContext: done=%d err=%v", done, err)
	}
	if plain.Config().CanonicalKey() != ctxed.Config().CanonicalKey() {
		t.Fatal("RunContext trajectory diverges from Run")
	}
	if plain.Stats() != ctxed.Stats() {
		t.Fatal("RunContext statistics diverge from Run")
	}
}

// cancelAfterPolls is a Context whose Err() starts failing after a fixed
// number of polls — a deterministic, race-free way to land a cancellation
// in the middle of a RunContext call.
type cancelAfterPolls struct {
	context.Context
	remaining int
}

func (c *cancelAfterPolls) Err() error {
	if c.remaining > 0 {
		c.remaining--
		return nil
	}
	return context.Canceled
}

func TestRunContextCancellation(t *testing.T) {
	ch, err := New(mustInitial(t, LayoutSpiral, []int{8, 8}, 22), Params{Lambda: 2, Gamma: 2, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if done, err := ch.RunContext(pre, 1000); done != 0 || err == nil {
		t.Fatalf("pre-cancelled: done=%d err=%v", done, err)
	}
	// Cancellation lands at the third poll: exactly two full batches run.
	ctx := &cancelAfterPolls{Context: context.Background(), remaining: 2}
	done, err := ch.RunContext(ctx, 1<<40)
	if err != context.Canceled {
		t.Fatalf("error %v", err)
	}
	if want := uint64(2 * cancelCheckInterval); done != want {
		t.Fatalf("done=%d, want %d", done, want)
	}
	// The chain remains usable after cancellation.
	ch.Run(100)
	if ch.Stats().Steps != done+100 {
		t.Fatalf("chain unusable after cancel: steps=%d", ch.Stats().Steps)
	}
}
