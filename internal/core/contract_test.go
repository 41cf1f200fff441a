package core_test

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"sops/internal/core"
	"sops/internal/ising"
	"sops/internal/lattice"
	"sops/internal/psys"
	"sops/internal/rng"
)

// sameColorRandomRings is the number of random k-colour rings per
// direction the contract check tries after the exhaustive two-colour ones.
const sameColorRandomRings = 2_000

// checkSameColor holds bound model m to Model.SwapExponents' same-colour
// contract over colors colours: on every direction, for every pair colour
// c, every ring whose cells are vacant or hold c or one other colour (3⁸
// rings per direction and colour pair) and sameColorRandomRings rings over
// all colours, a same-coloured pair must get the permit flag and exponent
// vector of the canonical gather, where l and lp hold colour 0 and the
// ring is empty. It returns the first gather that breaks the contract.
func checkSameColor(m core.Model, colors int) error {
	origin := lattice.Point{}
	var cell [10]lattice.Point
	var held [10]int // -1 vacant, else the colour
	at := func(p lattice.Point) (psys.Color, bool) {
		for k, q := range cell {
			if q == p && held[k] >= 0 {
				return psys.Color(held[k]), true
			}
		}
		return 0, false
	}
	cell = psys.PairCells(origin, 0)
	held = [10]int{-1, -1, -1, -1, -1, -1, -1, -1, 0, 0}
	canon := psys.GatherPairFrom(at, origin, 0)
	want := make([]int8, m.NumExponents())
	wantOK := m.SwapExponents(&canon, want)
	got := make([]int8, m.NumExponents())
	try := func(dir lattice.Direction) error {
		g := psys.GatherPairFrom(at, origin, dir)
		if ok := m.SwapExponents(&g, got); ok != wantOK || !slices.Equal(got, want) {
			return fmt.Errorf("%s over %d colours: dir %v, pair colour %d, ring %v: SwapExponents %v %v, canonical %v %v",
				m.Name(), colors, dir, held[8], held[:8], ok, got, wantOK, want)
		}
		return nil
	}
	r := rng.New(uint64(colors))
	for dir := lattice.Direction(0); dir < lattice.NumDirections; dir++ {
		cell = psys.PairCells(origin, dir)
		for c := 0; c < colors; c++ {
			held[8], held[9] = c, c
			for o := 0; o < colors; o++ {
				if o == c && colors > 1 {
					continue
				}
				for code := 0; code < 6561; code++ { // 3⁸
					for k, x := 0, code; k < 8; k, x = k+1, x/3 {
						held[k] = [3]int{-1, c, o}[x%3]
					}
					if err := try(dir); err != nil {
						return err
					}
				}
			}
		}
		for range sameColorRandomRings {
			c := r.Intn(colors)
			held[8], held[9] = c, c
			for k := range 8 {
				held[k] = r.Intn(colors+1) - 1
			}
			if err := try(dir); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestSameColorContract holds every registered model and ising.Kawasaki,
// bound at 2 and 3 colours, to the same-colour contract the chain's
// end-cell decision rests on.
func TestSameColorContract(t *testing.T) {
	models := []core.Model{ising.Kawasaki}
	for _, name := range core.ModelNames() {
		m, err := core.LookupModel(name)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	for _, m := range models {
		for _, colors := range []int{2, 3} {
			bound, _, _, err := core.BindModel(m, colors, core.Params{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkSameColor(bound, colors); err != nil {
				t.Error(err)
			}
		}
	}
}

// ringReader breaks the same-colour contract: its same-colour exponent
// counts the occupied ring cells.
type ringReader struct{ core.Model }

func (ringReader) SwapExponents(g *psys.PairGather, dE []int8) bool {
	dE[0], dE[1] = 0, -int8(bits.OnesCount8(g.Occ()))
	return true
}

// colourReader breaks it too: a same-coloured pair of colour 1 may not
// swap.
type colourReader struct{ core.Model }

func (m colourReader) SwapExponents(g *psys.PairGather, dE []int8) bool {
	c, _ := g.LColor()
	return m.Model.SwapExponents(g, dE) && c != 1
}

// TestSameColorContractHasPower shows the check reports a model whose
// same-colour answer reads the ring or the pair's colour.
func TestSameColorContractHasPower(t *testing.T) {
	for _, m := range []core.Model{ringReader{core.Separation}, colourReader{core.Separation}} {
		err := checkSameColor(m, 2)
		if err == nil {
			t.Errorf("%T: contract breach not reported", m)
		}
		t.Log(err)
	}
}
