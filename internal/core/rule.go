package core

import (
	"sops/internal/lattice"
	"sops/internal/psys"
	"sops/internal/rng"
)

// Rule is Algorithm 1's local rule for one bound model: the decision a
// single proposal makes from its gathered (l, lp) neighborhood. It is the
// distributed algorithm A of §2.1 as much as the step of chain M, so every
// executor decides through a Rule — the serial chain, the sharded workers
// and the amoebot runtime's activations — and keeps only its own apply
// and bookkeeping code. A Rule is read-only while proposals run, so
// concurrent executors may share one.
type Rule struct {
	model Model
	// noSwaps is the executor's swap switch (Params.DisableSwaps), fixed
	// when the executor is built.
	noSwaps bool
	// sameDraws reports whether a same-colour swap proposal spends an
	// acceptance draw at the couplings the thresholds were built for: the
	// swap switch is on and the threshold of the model's same-colour
	// exponents (SwapExponents' contract) is below the no-draw sentinel.
	sameDraws bool
	mt        modelTables
}

// NewRule builds the rule for a model already bound by BindModel, at
// energy couplings eff (length m.NumExponents()), rejecting every swap
// proposal when disableSwaps is set.
func NewRule(m Model, eff []float64, disableSwaps bool) *Rule {
	u := newRule(m, disableSwaps)
	u.retune(eff)
	return &u
}

// newRule returns the rule for bound model m with its shared validity
// table; the caller fills the thresholds with retune before the first
// proposal.
func newRule(m Model, disableSwaps bool) Rule {
	return Rule{model: m, noSwaps: disableSwaps, mt: modelTables{moveOK: validityOf(m)}}
}

// sameColorGather is the canonical same-colour swap proposal: l and lp
// hold colour 0 and the ring is empty. Under SwapExponents' contract the
// model's answer on it is its answer for every same-coloured pair.
var sameColorGather = psys.GatherPairFrom(func(p lattice.Point) (psys.Color, bool) {
	return 0, p == lattice.Point{} || p == lattice.Point{}.Neighbor(0)
}, lattice.Point{}, 0)

// retune rebuilds the acceptance thresholds at effective energy couplings
// eff (length NumExponents) and, from the same tables, whether a
// same-colour swap spends a draw: the threshold the full decision would
// probe for the canonical same-colour gather. Every executor calls it at
// construction and whenever its effective couplings change, never while
// proposals run.
func (u *Rule) retune(eff []float64) {
	u.mt.retune(eff)
	g := sameColorGather
	dE := make([]int8, len(eff))
	u.sameDraws = !u.noSwaps && u.model.SwapExponents(&g, dE) &&
		u.mt.thresh[u.mt.flat(dE)] != probScale
}

// Model returns the bound model the rule decides for.
func (u *Rule) Model() Model { return u.model }

// Decide evaluates one proposal of Algorithm 1 on the gathered
// neighborhood g, using dE (length NumExponents) as exponent scratch and
// drawing from r. If lp is vacant it is a move (steps 3–8): the validity
// table probe covers conditions (i) e ≠ 5 and (ii) Property 4 or 5, and
// the Metropolis filter condition (iii). If lp is occupied it is a swap
// (steps 9–10), which the swap switch or the model may veto outright. The
// acceptance draw is taken only when the threshold is below the no-draw
// sentinel, exactly as the seed implementation consumed its Float64.
//
// A swap of two same-coloured particles is decided first, from the two
// end bytes alone (sameColor): it changes nothing whichever way its
// filter goes, so it is reported Rejected and Swapped always means a
// configuration change. The seed implementation ran its filter all the
// same, so the rule spends the one draw that filter would have spent,
// which by SwapExponents' contract depends on the couplings alone. The
// chain takes the same branch before it gathers.
func (u *Rule) Decide(g *psys.PairGather, dE []int8, r *rng.Buffered) Outcome {
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
	if ci, _ := g.LColor(); ci == cj {
		return u.sameColor(r)
	}
	if u.noSwaps || !u.model.SwapExponents(g, dE) ||
		!acceptDraw(r, u.mt.thresh[u.mt.flat(dE)]) {
		return Rejected
	}
	return Swapped
}

// sameColor decides a swap proposal whose two particles share a colour:
// it spends the acceptance draw the full decision would have spent
// (sameDraws) and reports Rejected, with no ring, model call or table
// probe.
func (u *Rule) sameColor(r *rng.Buffered) Outcome {
	if u.sameDraws {
		r.Uint64()
	}
	return Rejected
}
