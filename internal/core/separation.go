package core

import (
	"math"

	"sops/internal/lattice"
	"sops/internal/psys"
)

// separationModel is the paper's Algorithm 1 — the heterogeneous
// separation/integration dynamics — re-expressed as the first registered
// Model. Its Hamiltonian is E(σ) = −e(σ)·ln λ − a(σ)·ln γ over couplings
// (λ, γ); its validity predicate is Degree(l) ≠ 5 ∧ (Property 4 ∨
// Property 5), delegated to the psys kernel tables. The executors run it
// through the same table-driven kernel as every other model, and the
// committed golden trajectories pin that kernel to the seed
// implementation, so the model is also the conformance reference for the
// substrate itself.
type separationModel struct{}

// Separation is the registered instance of the paper's dynamics.
var Separation Model = separationModel{}

func (separationModel) Name() string { return "separation" }

func (separationModel) Couplings() []Coupling {
	return []Coupling{
		{Name: "lambda", Default: 4},
		{Name: "gamma", Default: 4},
	}
}

func (separationModel) NumExponents() int { return 2 }

func (separationModel) Valid(dir lattice.Direction, occ uint8) bool {
	return psys.MoveOK(dir, occ)
}

func (separationModel) MoveExponents(g *psys.PairGather, dE []int8) {
	dLambda, dGamma := g.MoveExponents()
	dE[0], dE[1] = int8(dLambda), int8(dGamma)
}

func (separationModel) SwapExponents(g *psys.PairGather, dE []int8) bool {
	dE[0], dE[1] = 0, int8(g.SwapExponent())
	return true
}

func (separationModel) Energy(v ConfigView, coup []float64) float64 {
	return -float64(v.Edges())*math.Log(coup[0]) - float64(v.HomEdges())*math.Log(coup[1])
}

func (separationModel) ObservableNames() []string {
	return []string{"homEdgeFrac"}
}

func (separationModel) Observe(v ConfigView, coup []float64, out []float64) {
	out[0] = 0
	if e := v.Edges(); e > 0 {
		out[0] = float64(v.HomEdges()) / float64(e)
	}
}

func init() { RegisterModel(Separation) }
