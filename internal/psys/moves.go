package psys

import (
	"fmt"

	"sops/internal/lattice"
)

// Occupancy is the read-only view the movement properties need: whether a
// lattice node is occupied. *Config implements it; the distributed runtime
// provides locked local views.
type Occupancy interface {
	Occupied(p lattice.Point) bool
}

// Property4 checks the first locally checkable movement condition on the
// configuration; see Property4On.
func (c *Config) Property4(l, lp lattice.Point) bool { return Property4On(c, l, lp) }

// Property5 checks the second locally checkable movement condition on the
// configuration; see Property5On.
func (c *Config) Property5(l, lp lattice.Point) bool { return Property5On(c, l, lp) }

// Property4On checks the first locally checkable movement condition for a
// particle moving between adjacent locations l and lp (Property 4 of the
// paper): |S| ∈ {1, 2} and every particle in N(l ∪ lp) is connected to
// exactly one particle in S by a path through N(l ∪ lp), where
// S = N(l) ∩ N(lp) is the set of particles adjacent to both locations and
// N(l ∪ lp) excludes any particles occupying l and lp themselves.
//
// The check uses only the ten lattice nodes adjacent to l or lp, so a
// particle can evaluate it with strictly local information.
func Property4On(c Occupancy, l, lp lattice.Point) bool {
	local := localNeighborhoodOn(c, l, lp)
	if local.common == 0 || local.common > 2 {
		return false
	}
	comp := local.components()
	// Every particle (including the members of S themselves) must see
	// exactly one particle of S in its connected component of N(l ∪ lp).
	for i := 0; i < local.n; i++ {
		inS := 0
		for j := 0; j < local.n; j++ {
			if comp[j] == comp[i] && local.isCommon[j] {
				inS++
			}
		}
		if inS != 1 {
			return false
		}
	}
	return true
}

// Property5On checks the second locally checkable movement condition
// (Property 5 of the paper): |S| = 0, and both N(l) \ {lp} and N(lp) \ {l}
// are nonempty and connected (as induced subgraphs of G_Δ).
func Property5On(c Occupancy, l, lp lattice.Point) bool {
	local := localNeighborhoodOn(c, l, lp)
	if local.common != 0 {
		return false
	}
	nl, nln := neighborsExcludingOn(c, l, lp)
	nlp, nlpn := neighborsExcludingOn(c, lp, l)
	return nln > 0 && nlpn > 0 && pointsConnected(nl[:nln]) && pointsConnected(nlp[:nlpn])
}

// MoveValid reports whether a contracted particle at l may move to the
// adjacent unoccupied location lp under the paper's movement rules:
// the particle must not have all five possible neighbors other than lp
// (condition (i) of Algorithm 1, e ≠ 5), and the pair (l, lp) must satisfy
// Property 4 or Property 5. The bias-parameter Metropolis filter is applied
// separately by the Markov chain.
func (c *Config) MoveValid(l, lp lattice.Point) bool {
	if !l.Adjacent(lp) || !c.Occupied(l) || c.Occupied(lp) {
		return false
	}
	if c.Degree(l) == 5 {
		return false
	}
	return c.Property4(l, lp) || c.Property5(l, lp)
}

// ApplyMove moves the particle at l to the adjacent unoccupied node lp,
// keeping its color and updating all edge statistics incrementally. It does
// not re-check Property 4/5; callers decide validity via MoveValid. It
// gathers the pair once and commits like CommitMove.
func (c *Config) ApplyMove(l, lp lattice.Point) error {
	dir, ok := l.DirectionTo(lp)
	if !ok {
		return ErrNotAdjacent
	}
	if !c.win.Interior(l) { // every particle is interior
		return fmt.Errorf("move from %v: %w", l, ErrVacant)
	}
	i := c.win.Index(l)
	g := c.GatherAt(i, dir)
	if _, ok := g.LColor(); !ok {
		return fmt.Errorf("move from %v: %w", l, ErrVacant)
	}
	if _, ok := g.LpColor(); ok {
		return fmt.Errorf("move to %v: %w", lp, ErrOccupied)
	}
	_, err := c.CommitMove(i, &g)
	return err
}

// CommitMove commits a move of the particle at window index i along
// g.Dir(), where g = GatherAt(i, g.Dir()) shows l occupied and lp vacant
// and the store has not changed since — the gather a chain decided the
// move from. It returns lp's window index in the window after the move.
//
// With lp at depth ≥ 1 the move commits from g: the changed edges are
// exactly the occupied ring cells adjacent to lp minus those adjacent to
// l (MoveExponents), which is what Remove(l) and Place(lp) would count,
// and the window does not change. With lp on the border ring it is
// Remove(l) then Place(lp), which re-homes the window; if Place refuses
// lp with ErrSpread, the particle goes back to l and the Config is
// unchanged.
func (c *Config) CommitMove(i int, g *PairGather) (int, error) {
	l := c.win.PointAt(i)
	lp := l.Neighbor(g.dir)
	col := uint8(g.ends)
	if c.win.Interior(lp) {
		j := i + int(c.pairNb[g.dir])
		c.cells[i], c.cells[j] = 0, col
		dl, dg := g.MoveExponents()
		c.edges += dl
		c.hom += dg
		return j, nil
	}
	if err := c.Remove(l); err != nil {
		return 0, err
	}
	if err := c.Place(lp, Color(col-1)); err != nil {
		// l is vacant now and interior to the unchanged window, so
		// putting the particle back cannot fail.
		_ = c.Place(l, Color(col-1))
		return 0, fmt.Errorf("move to %v: %w", lp, err)
	}
	return c.win.Index(lp), nil
}

// ApplySwap exchanges the particles at adjacent occupied nodes l and lp
// (a swap move, §2.3). Swap moves never change the set of occupied nodes,
// so they cannot disconnect the system or create holes. It gathers the
// pair once and commits like CommitSwap; a swap of two same-colored
// particles changes nothing.
func (c *Config) ApplySwap(l, lp lattice.Point) error {
	dir, ok := l.DirectionTo(lp)
	if !ok {
		return ErrNotAdjacent
	}
	if !c.win.Interior(l) { // every particle is interior
		return fmt.Errorf("swap at %v: %w", l, ErrVacant)
	}
	i := c.win.Index(l)
	g := c.GatherAt(i, dir)
	cl, clp := uint8(g.ends), uint8(g.ends>>8)
	if cl == 0 {
		return fmt.Errorf("swap at %v: %w", l, ErrVacant)
	}
	if clp == 0 {
		return fmt.Errorf("swap at %v: %w", lp, ErrVacant)
	}
	if cl != clp {
		c.CommitSwap(i, &g)
	}
	return nil
}

// CommitSwap commits a swap of the particles at window index i and its
// neighbor along g.Dir(), where g = GatherAt(i, g.Dir()) shows two
// particles of different colors and the store has not changed since. Both
// are particles, so both sit at depth ≥ 1 and the swap always commits
// from g: e(σ) is unchanged and a(σ) moves by SwapExponent, the recolored
// same-color adjacencies around the ring.
func (c *Config) CommitSwap(i int, g *PairGather) {
	c.cells[i], c.cells[i+int(c.pairNb[g.dir])] = uint8(g.ends>>8), uint8(g.ends)
	c.hom += g.SwapExponent()
}

// localNeighborhood captures N(l ∪ lp) and S = N(l) ∩ N(lp) for the
// Property 4/5 checks. All sets exclude particles occupying l and lp.
// There are at most ten candidate nodes (the union of the two
// six-neighborhoods minus l and lp themselves), so fixed-size arrays keep
// the hot path allocation-free.
type localNeighborhood struct {
	pts      [10]lattice.Point // occupied nodes of N(l ∪ lp)
	isCommon [10]bool          // pts[i] ∈ S
	n        int               // |N(l ∪ lp)|
	common   int               // |S|
}

func localNeighborhoodOn(c Occupancy, l, lp lattice.Point) localNeighborhood {
	var local localNeighborhood
	add := func(p lattice.Point) {
		if p == l || p == lp {
			return
		}
		for i := 0; i < local.n; i++ {
			if local.pts[i] == p {
				return
			}
		}
		if !c.Occupied(p) {
			return
		}
		inS := p.Adjacent(l) && p.Adjacent(lp)
		local.pts[local.n] = p
		local.isCommon[local.n] = inS
		local.n++
		if inS {
			local.common++
		}
	}
	for _, nb := range l.Neighbors() {
		add(nb)
	}
	for _, nb := range lp.Neighbors() {
		add(nb)
	}
	return local
}

// components labels the connected components of the induced subgraph on
// local.pts (adjacency inherited from G_Δ) and returns the component index
// of each point.
func (local *localNeighborhood) components() [10]int {
	var comp [10]int
	for i := 0; i < local.n; i++ {
		comp[i] = -1
	}
	next := 0
	var stack [10]int
	for i := 0; i < local.n; i++ {
		if comp[i] != -1 {
			continue
		}
		comp[i] = next
		stack[0] = i
		top := 1
		for top > 0 {
			top--
			cur := stack[top]
			for j := 0; j < local.n; j++ {
				if comp[j] == -1 && local.pts[cur].Adjacent(local.pts[j]) {
					comp[j] = next
					stack[top] = j
					top++
				}
			}
		}
		next++
	}
	return comp
}

// neighborsExcludingOn returns the occupied neighbors of p excluding skip,
// in a fixed-size array plus count, keeping Property 5 allocation-free.
func neighborsExcludingOn(c Occupancy, p, skip lattice.Point) (out [6]lattice.Point, n int) {
	for _, nb := range p.Neighbors() {
		if nb == skip {
			continue
		}
		if c.Occupied(nb) {
			out[n] = nb
			n++
		}
	}
	return out, n
}

// pointsConnected reports whether the induced subgraph on pts (at most six
// points) is connected.
func pointsConnected(pts []lattice.Point) bool {
	if len(pts) <= 1 {
		return true
	}
	var visited [6]bool
	var stack [6]int
	visited[0] = true
	stack[0] = 0
	top := 1
	count := 1
	for top > 0 {
		top--
		cur := stack[top]
		for j := range pts {
			if !visited[j] && pts[cur].Adjacent(pts[j]) {
				visited[j] = true
				count++
				stack[top] = j
				top++
			}
		}
	}
	return count == len(pts)
}
