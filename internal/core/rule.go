package core

import (
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
	mt      modelTables
}

// NewRule builds the rule for a model already bound by BindModel, at
// energy couplings eff (length m.NumExponents()), rejecting every swap
// proposal when disableSwaps is set.
func NewRule(m Model, eff []float64, disableSwaps bool) *Rule {
	u := newRule(m, disableSwaps)
	u.mt.retune(eff)
	return &u
}

// newRule returns the rule for bound model m with its shared validity
// table; the caller fills the thresholds with mt.retune before the first
// proposal.
func newRule(m Model, disableSwaps bool) Rule {
	return Rule{model: m, noSwaps: disableSwaps, mt: modelTables{moveOK: validityOf(m)}}
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
// sentinel, exactly as the seed implementation consumed its Float64. An
// accepted swap of two same-colored particles changes nothing and is
// reported Rejected, so Swapped always means a configuration change.
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
	if u.noSwaps || !u.model.SwapExponents(g, dE) ||
		!acceptDraw(r, u.mt.thresh[u.mt.flat(dE)]) {
		return Rejected
	}
	if ci, _ := g.LColor(); ci == cj {
		return Rejected
	}
	return Swapped
}
