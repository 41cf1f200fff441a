// Package ising implements the Ising-model substrate the paper's analysis
// builds on: color dynamics on a fixed particle shape.
//
// With the occupied set frozen to a boundary P, the separation chain M
// reduces to its swap moves, whose stationary distribution is exactly the
// fixed-boundary measure π_P(σ) ∝ γ^{−h(σ)} appearing in Theorems 14 and
// 16 — an Ising/Potts model with conserved color counts on the subgraph
// induced by the shape. This package provides:
//
//   - Kawasaki, the core.Model of that restriction: core.Chain runs it as
//     chain M with every move vetoed, so color-conserving nearest-neighbor
//     swaps under M's own Metropolis filter sample π_P at fixed color
//     counts;
//   - the high-temperature expansion (§4): the exact identity rewriting
//     Σ_σ γ^{−h(σ)} as a sum over even edge sets, used to analyze γ near 1.
package ising

import (
	"math"

	"sops/internal/core"
	"sops/internal/lattice"
	"sops/internal/psys"
)

// kawasakiModel is Kawasaki dynamics as a core.Model: the swap arm of
// Algorithm 1 alone, over the single coupling γ. No move is valid, so a
// proposal whose target is vacant is rejected without a draw and the shape
// never changes; a swap is accepted with probability min(1, γ^Δa), Δa the
// change in same-color adjacencies — separation's swap exponent.
type kawasakiModel struct{}

// Kawasaki is the conserved-color swap dynamics on a fixed particle shape:
// core.NewWithModel(cfg, params, Kawasaki, []float64{γ}) builds chain M
// restricted to swap moves, which samples π_P(σ) ∝ γ^{−h(σ)} over the
// colorings of cfg's shape with its color counts. It is not registered:
// the registry lists the dynamics a system, a sweep or a checkpoint may
// name, and a fixed-shape run is none of those.
var Kawasaki core.Model = kawasakiModel{}

func (kawasakiModel) Name() string { return "kawasaki" }

func (kawasakiModel) Couplings() []core.Coupling {
	return []core.Coupling{{Name: "gamma", Default: 4}}
}

func (kawasakiModel) NumExponents() int { return 1 }

func (kawasakiModel) Valid(lattice.Direction, uint8) bool { return false }

func (kawasakiModel) MoveExponents(*psys.PairGather, []int8) {}

func (kawasakiModel) SwapExponents(g *psys.PairGather, dE []int8) bool {
	dE[0] = int8(g.SwapExponent())
	return true
}

// Energy is −a(σ)·ln γ. The edge count e is constant on a frozen shape, so
// exp(−Energy) ∝ γ^{a} = γ^{e−h} ∝ γ^{−h}: the measure π_P.
func (kawasakiModel) Energy(v core.ConfigView, coup []float64) float64 {
	return -float64(v.HomEdges()) * math.Log(coup[0])
}
