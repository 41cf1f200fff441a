package core

import (
	"math"

	"sops/internal/lattice"
	"sops/internal/psys"
)

// alignmentModel is fixed-census alignment: the k color classes are read as
// k orientations on ℤ_k, and the Hamiltonian rewards aligned (equal) and
// near-aligned (±1 mod k) adjacencies separately,
//
//	E(σ) = −e(σ)·ln λ − a(σ)·ln α − m(σ)·ln β,
//
// with e the edges, a the aligned and m the near-aligned adjacencies.
// α > β > 1 forms alignment domains with soft boundaries. The kernel only
// moves and swaps particles, so none turns: the orientation census is fixed
// at construction, the model samples a fixed-census clock/Potts measure, and
// its order observable cannot move. The orientation-coupled chain of
// Kedia–Oh–Randall (arXiv:2207.07956) needs a recolour proposal too
// (ROADMAP.md). Validity is the paper's (Degree ≠ 5 ∧ Property 4 ∨ 5), so
// configurations stay connected and hole-free. The model binds to the
// configuration's color count at construction (Binder), fixing the
// orientation modulus k.
type alignmentModel struct {
	k int // orientation modulus; 0 before Bind
}

// Alignment is the registered (unbound) alignment-chain prototype.
var Alignment Model = alignmentModel{}

func (alignmentModel) Name() string { return "alignment" }

func (alignmentModel) Couplings() []Coupling {
	return []Coupling{
		{Name: "lambda", Default: 4},
		{Name: "alpha", Default: 4},
		{Name: "beta", Default: 2},
	}
}

func (alignmentModel) NumExponents() int { return 3 }

func (m alignmentModel) Bind(numColors int) Model {
	m.k = numColors
	return m
}

func (alignmentModel) Valid(dir lattice.Direction, occ uint8) bool {
	return psys.MoveOK(dir, occ)
}

// nearOf returns the orientations near c on ℤ_k — c±1 mod k, deduplicated
// (k = 2 has one near orientation, k < 2 none).
func (m alignmentModel) nearOf(c psys.Color) (up, dn psys.Color, n int) {
	if m.k < 2 {
		return 0, 0, 0
	}
	up = psys.Color((int(c) + 1) % m.k)
	dn = psys.Color((int(c) + m.k - 1) % m.k)
	if up == dn {
		return up, 0, 1
	}
	return up, dn, 2
}

// nearCounts sums the ring cells holding an orientation near c, adjacent
// to l resp. lp. Each result is within [0, 5]: the near classes are
// disjoint and at most 5 ring cells are adjacent to either endpoint.
func (m alignmentModel) nearCounts(g *psys.PairGather, c psys.Color) (nl, nlp int) {
	up, dn, n := m.nearOf(c)
	if n >= 1 {
		a, b := g.ColorCounts(up)
		nl, nlp = nl+a, nlp+b
	}
	if n == 2 {
		a, b := g.ColorCounts(dn)
		nl, nlp = nl+a, nlp+b
	}
	return nl, nlp
}

func (m alignmentModel) MoveExponents(g *psys.PairGather, dE []int8) {
	nl, nlp := g.DegreeCounts()
	dE[0] = int8(nlp - nl)
	c, _ := g.LColor()
	al, alp := g.ColorCounts(c)
	dE[1] = int8(alp - al)
	bl, blp := m.nearCounts(g, c)
	dE[2] = int8(blp - bl)
}

func (m alignmentModel) SwapExponents(g *psys.PairGather, dE []int8) bool {
	ci, _ := g.LColor()
	cj, _ := g.LpColor()
	if ci == cj {
		// Same-orientation swaps change nothing but their own edge's two
		// one-sided counts — the same α^{−2} no-op the separation model has.
		dE[0], dE[1], dE[2] = 0, -2, 0
		return true
	}
	// Degrees are swap-invariant, and the P–Q edge itself contributes
	// identically before and after (the alignment relations are symmetric),
	// so only the ring-side counts move. Each aligned/near difference is
	// within ±5, the sums within ±10.
	dE[0] = 0
	ail, ailp := g.ColorCounts(ci)
	ajl, ajlp := g.ColorCounts(cj)
	dE[1] = int8((ailp - ail) + (ajl - ajlp))
	nil_, nilp := m.nearCounts(g, ci)
	njl, njlp := m.nearCounts(g, cj)
	dE[2] = int8((nilp - nil_) + (njl - njlp))
	return true
}

// isNear reports whether orientations a and b are distinct and adjacent
// on ℤ_k.
func isNear(a, b psys.Color, k int) bool {
	return a != b && ((int(a)+1)%k == int(b) || (int(b)+1)%k == int(a))
}

// nearEdges counts the near-aligned adjacencies of a full configuration —
// the m(σ) term of the Hamiltonian. Each undirected edge is seen from
// both endpoints, hence the halving.
func (m alignmentModel) nearEdges(v ConfigView) int {
	k := m.k
	if k == 0 {
		k = v.NumColors()
	}
	if k < 2 {
		return 0
	}
	total := 0
	v.ForEach(func(p lattice.Point, col psys.Color) {
		for _, q := range p.Neighbors() {
			if cq, ok := v.At(q); ok && isNear(col, cq, k) {
				total++
			}
		}
	})
	return total / 2
}

func (m alignmentModel) Energy(v ConfigView, coup []float64) float64 {
	return -float64(v.Edges())*math.Log(coup[0]) -
		float64(v.HomEdges())*math.Log(coup[1]) -
		float64(m.nearEdges(v))*math.Log(coup[2])
}

func (alignmentModel) ObservableNames() []string {
	return []string{"alignedFrac", "nearFrac", "order"}
}

// Observe exports the alignment order parameters: the aligned and
// near-aligned edge fractions, and the magnitude of the mean orientation
// phasor |Σ_c n_c·e^{2πic/k}|/n. The phasor depends only on the census, so
// it keeps its initial value for the whole run (see the type comment).
func (m alignmentModel) Observe(v ConfigView, coup []float64, out []float64) {
	out[0], out[1] = 0, 0
	if e := v.Edges(); e > 0 {
		out[0] = float64(v.HomEdges()) / float64(e)
		out[1] = float64(m.nearEdges(v)) / float64(e)
	}
	k := m.k
	if k == 0 {
		k = v.NumColors()
	}
	var re, im float64
	for c := 0; c < k; c++ {
		n := float64(v.ColorCount(psys.Color(c)))
		th := 2 * math.Pi * float64(c) / float64(k)
		re += n * math.Cos(th)
		im += n * math.Sin(th)
	}
	out[2] = 0
	if n := v.N(); n > 0 {
		out[2] = math.Hypot(re, im) / float64(n)
	}
}

func init() { RegisterModel(Alignment) }
