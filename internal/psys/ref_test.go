package psys

import (
	"sort"

	"sops/internal/lattice"
)

// refConfig is the seed's map-backed occupancy store, retained (keyed by
// lattice.Point) as a test-only reference implementation. The differential
// tests drive it and the dense-grid Config through identical operation
// sequences and require every observable — occupancy, e(σ), a(σ), h(σ),
// p(σ), boundary walks, error verdicts — to agree, so the dense store
// cannot silently diverge from the semantics the original implementation
// defined. The reference has no area budget: operations the dense store
// refuses with ErrSpread are skipped on it (applyDense).
type refConfig struct {
	occ        map[lattice.Point]Color
	edges      int
	hom        int
	colorCount [MaxColors]int
}

func newRef() *refConfig {
	return &refConfig{occ: make(map[lattice.Point]Color)}
}

func (c *refConfig) At(p lattice.Point) (Color, bool) {
	col, ok := c.occ[p]
	return col, ok
}

func (c *refConfig) Occupied(p lattice.Point) bool {
	_, ok := c.occ[p]
	return ok
}

func (c *refConfig) N() int        { return len(c.occ) }
func (c *refConfig) Edges() int    { return c.edges }
func (c *refConfig) HomEdges() int { return c.hom }
func (c *refConfig) HetEdges() int { return c.edges - c.hom }

func (c *refConfig) Perimeter() int {
	if len(c.occ) == 0 {
		return 0
	}
	return 3*len(c.occ) - 3 - c.edges
}

func (c *refConfig) Place(p lattice.Point, col Color) error {
	if col >= MaxColors {
		return ErrColorRange
	}
	if c.Occupied(p) {
		return ErrOccupied
	}
	for _, nb := range p.Neighbors() {
		if nc, ok := c.At(nb); ok {
			c.edges++
			if nc == col {
				c.hom++
			}
		}
	}
	c.occ[p] = col
	c.colorCount[col]++
	return nil
}

func (c *refConfig) Remove(p lattice.Point) error {
	col, ok := c.At(p)
	if !ok {
		return ErrVacant
	}
	delete(c.occ, p)
	for _, nb := range p.Neighbors() {
		if nc, ok := c.At(nb); ok {
			c.edges--
			if nc == col {
				c.hom--
			}
		}
	}
	c.colorCount[col]--
	return nil
}

func (c *refConfig) ApplyMove(l, lp lattice.Point) error {
	if !l.Adjacent(lp) {
		return ErrNotAdjacent
	}
	col, ok := c.At(l)
	if !ok {
		return ErrVacant
	}
	if c.Occupied(lp) {
		return ErrOccupied
	}
	if err := c.Remove(l); err != nil {
		return err
	}
	return c.Place(lp, col)
}

func (c *refConfig) ApplySwap(l, lp lattice.Point) error {
	if !l.Adjacent(lp) {
		return ErrNotAdjacent
	}
	cl, ok := c.At(l)
	if !ok {
		return ErrVacant
	}
	cp, ok := c.At(lp)
	if !ok {
		return ErrVacant
	}
	if cl == cp {
		return nil
	}
	if err := c.Remove(l); err != nil {
		return err
	}
	if err := c.Remove(lp); err != nil {
		return err
	}
	if err := c.Place(l, cp); err != nil {
		return err
	}
	return c.Place(lp, cl)
}

func (c *refConfig) Degree(p lattice.Point) int {
	deg := 0
	for _, nb := range p.Neighbors() {
		if c.Occupied(nb) {
			deg++
		}
	}
	return deg
}

func (c *refConfig) MoveValid(l, lp lattice.Point) bool {
	if !l.Adjacent(lp) || !c.Occupied(l) || c.Occupied(lp) {
		return false
	}
	if c.Degree(l) == 5 {
		return false
	}
	return Property4On(c, l, lp) || Property5On(c, l, lp)
}

func (c *refConfig) Points() []lattice.Point {
	pts := make([]lattice.Point, 0, len(c.occ))
	for p := range c.occ {
		pts = append(pts, p)
	}
	sort.Slice(pts, func(i, j int) bool { return lattice.Less(pts[i], pts[j]) })
	return pts
}

// BoundaryWalk mirrors Config.BoundaryWalk through the shared traversal.
func (c *refConfig) BoundaryWalk() []lattice.Point {
	if len(c.occ) == 0 {
		return nil
	}
	pts := c.Points()
	start := pts[0]
	if len(pts) == 1 {
		return []lattice.Point{start}
	}
	return BoundaryWalkOn(c, start, 0)
}
