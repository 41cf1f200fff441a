package core

import (
	"math"
	"testing"

	"sops/internal/lattice"
	"sops/internal/psys"
	"sops/internal/rng"
)

// legacyDecide is Rule.Decide in the order the kernel ran before
// same-colour swaps were decided from their two end cells: a swap went
// through the model's SwapExponents and the acceptance draw first, and
// only then was a same-coloured pair reported Rejected.
func legacyDecide(u *Rule, g *psys.PairGather, dE []int8, r *rng.Buffered) Outcome {
	cj, occupied := g.LpColor()
	if !occupied {
		if !u.mt.moveOK[g.Dir()][g.Occ()] {
			return Rejected
		}
		u.model.MoveExponents(g, dE)
		if !acceptDraw(r, u.mt.thresh[u.mt.flat(dE)]) {
			return Rejected
		}
		return Moved
	}
	if u.noSwaps || !u.model.SwapExponents(g, dE) ||
		!acceptDraw(r, u.mt.thresh[u.mt.flat(dE)]) {
		return Rejected
	}
	if ci, _ := g.LColor(); ci == cj {
		return Rejected
	}
	return Swapped
}

// legacyStep is Chain.Step as it ran before the end-cell check: every
// proposal gathers its ring and goes through legacyDecide.
func legacyStep(c *Chain) Outcome {
	if c.stats.Steps >= c.nextReb {
		c.retune()
	}
	c.stats.Steps++
	k := c.rand.Intn(len(c.slots))
	dir := lattice.Direction(c.rand.Intn(lattice.NumDirections))
	i := int(c.slots[k])
	c.gather = c.cfg.GatherAt(i, dir)
	switch legacyDecide(&c.rule, &c.gather, c.dE, c.rand) {
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

// swapOnlyModel has ising.Kawasaki's shape — every move invalid,
// separation's swap exponent over one coupling γ — for the lockstep test,
// which cannot import the ising package. TestKawasakiPinned holds
// ising.Kawasaki itself to its recorded trajectories.
type swapOnlyModel struct{}

func (swapOnlyModel) Name() string                           { return "swap-only" }
func (swapOnlyModel) Couplings() []Coupling                  { return []Coupling{{Name: "gamma", Default: 4}} }
func (swapOnlyModel) NumExponents() int                      { return 1 }
func (swapOnlyModel) Valid(lattice.Direction, uint8) bool    { return false }
func (swapOnlyModel) MoveExponents(*psys.PairGather, []int8) {}
func (swapOnlyModel) Energy(v ConfigView, coup []float64) float64 {
	return -float64(v.HomEdges()) * math.Log(coup[0])
}
func (swapOnlyModel) SwapExponents(g *psys.PairGather, dE []int8) bool {
	dE[0] = int8(g.SwapExponent())
	return true
}

// TestSameColorLockstep steps Chain.Step beside legacyStep on two chains
// built alike, for every chainPins row and the swap-only model at γ below,
// at and above 1, and asserts after every step that both report the same
// outcome and sit at the same rng position. Every 10⁴ steps it also
// decides every (particle, direction) proposal of the live configuration
// through Rule.Decide and legacyDecide from one rng state, the path the
// sharded worker and the amoebot runtime take on their own gathers.
func TestSameColorLockstep(t *testing.T) {
	type spec struct {
		name    string
		model   Model
		counts  []int
		layout  Layout
		coup    []float64
		noSwaps bool
		seed    uint64
	}
	var specs []spec
	for _, p := range chainPins {
		specs = append(specs, spec{p.name, p.model, p.counts, p.layout, p.coup, p.noSwaps, p.seed})
	}
	for i, g := range []float64{0.5, 1, 4} {
		specs = append(specs, spec{"swap-only", swapOnlyModel{}, []int{50, 50}, LayoutSpiral, []float64{g}, false, uint64(20 + i)})
	}
	const steps, sweepEvery = 100_000, 10_000
	for _, s := range specs {
		mk := func() *Chain {
			ch, err := NewWithModel(mustInitial(t, s.layout, s.counts, s.seed), Params{DisableSwaps: s.noSwaps, Seed: s.seed}, s.model, s.coup)
			if err != nil {
				t.Fatal(err)
			}
			return ch
		}
		a, b := mk(), mk()
		for n := 1; n <= steps; n++ {
			if oa, ob := a.Step(), legacyStep(b); oa != ob || *a.rand != *b.rand {
				t.Fatalf("%s %v: step %d: Step %v, legacy %v; rng positions equal: %v", s.name, s.coup, n, oa, ob, *a.rand == *b.rand)
			}
			if n%sweepEvery == 0 {
				sweepDecide(t, s.name, a)
			}
		}
		if a.Stats() != b.Stats() || !a.Config().Equal(b.Config()) {
			t.Fatalf("%s %v: chains diverged: %+v vs %+v", s.name, s.coup, a.Stats(), b.Stats())
		}
	}
}

// sweepDecide decides every proposal of c's live configuration through
// Rule.Decide and legacyDecide, each from a copy of c's rng, and fails on
// any difference in outcome or draws taken.
func sweepDecide(t *testing.T, name string, c *Chain) {
	t.Helper()
	dE := make([]int8, len(c.dE))
	for _, s := range c.slots {
		for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
			g := c.cfg.GatherAt(int(s), d)
			ra, rb := *c.rand, *c.rand
			if oa, ob := c.rule.Decide(&g, dE, &ra), legacyDecide(&c.rule, &g, dE, &rb); oa != ob || ra != rb {
				t.Fatalf("%s: Decide at slot %d dir %v: %v, legacy %v; rng positions equal: %v", name, s, d, oa, ob, ra == rb)
			}
		}
	}
}

// TestSameColorDrawTracksRetune holds the rule's same-colour draw bit to
// the couplings in force: false with swaps off or at γ ≤ 1, true above,
// and recomputed with the thresholds at every anneal stage boundary
// (stage 0 runs at γ_eff = 1).
func TestSameColorDrawTracksRetune(t *testing.T) {
	for _, tc := range []struct {
		eff     []float64
		noSwaps bool
		want    bool
	}{
		{[]float64{4, 0.5}, false, false},
		{[]float64{4, 1}, false, false},
		{[]float64{4, 81.0 / 79}, false, true},
		{[]float64{4, 4}, false, true},
		{[]float64{4, 4}, true, false},
	} {
		if got := NewRule(Separation, tc.eff, tc.noSwaps).sameDraws; got != tc.want {
			t.Errorf("separation at %v, swaps off %v: sameDraws %v, want %v", tc.eff, tc.noSwaps, got, tc.want)
		}
	}
	al := Alignment.(Binder).Bind(3)
	if NewRule(al, []float64{4, 1, 2}, false).sameDraws || !NewRule(al, []float64{1, 1.5, 0.5}, false).sameDraws {
		t.Error("alignment's same-colour draw does not follow α")
	}
	ch, err := NewWithModel(mustInitial(t, LayoutLine, []int{10, 10}, 1), Params{Seed: 1}, Anneal, []float64{4, 16, 3, 1_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []bool{false, true, true} {
		if ch.rule.sameDraws != want {
			t.Fatalf("anneal at step %d (γ_eff %v): sameDraws %v, want %v", ch.stats.Steps, ch.coupNow[1], ch.rule.sameDraws, want)
		}
		for ch.stats.Steps < ch.nextReb && ch.nextReb != math.MaxUint64 {
			ch.Step()
		}
		ch.Step() // the first step past the boundary retunes
	}
}
