package psys

import "sops/internal/lattice"

// BoundaryWalk traverses the outer boundary of a connected configuration and
// returns the closed walk as a sequence of occupied vertices (the walk
// visits cut vertices multiple times). The walk's length — the paper's
// perimeter p(σ) for connected hole-free configurations — is
// len(walk) for n ≥ 2, and 0 for n ≤ 1.
func (c *Config) BoundaryWalk() []lattice.Point {
	if c.n == 0 {
		return nil
	}
	start, _ := c.minPoint()
	if c.n == 1 {
		return []lattice.Point{start}
	}
	return BoundaryWalkOn(c, start, c.Perimeter()+1)
}

// BoundaryWalkOn traverses the outer boundary of the connected component of
// start over an arbitrary occupancy, where start must be the component's
// lexicographically smallest occupied vertex (so its W, NW and SW neighbors
// are vacant and exterior). sizeHint pre-sizes the returned walk (0 is
// fine). It is the storage-independent traversal shared by Config and the
// differential test layer's reference store.
//
// The traversal is Moore contour tracing adapted to the six-neighbor
// triangular lattice: from each boundary vertex, the next boundary vertex is
// the first occupied neighbor found scanning clockwise starting just past
// the backtrack direction, which keeps the exterior hugged on the walk's
// outside. The walk terminates when the initial directed edge repeats; the
// transition on (vertex, direction) states is injective, so the initial
// state provably recurs.
func BoundaryWalkOn(c Occupancy, start lattice.Point, sizeHint int) []lattice.Point {
	// Find the first move: scan clockwise starting at NW. The start vertex
	// is the lexicographic minimum, so its W, NW and SW neighbors are all
	// vacant (and exterior); the scan therefore picks a genuine outer
	// boundary edge in NE, E or SE, matching the walk's own scan rule with
	// a fictitious arrival from the vacant west side.
	var d0 lattice.Direction
	found := false
	for i, d := 0, lattice.Direction(2); i < lattice.NumDirections; i, d = i+1, d.Prev() {
		if c.Occupied(start.Neighbor(d)) {
			d0 = d
			found = true
			break
		}
	}
	if !found {
		// Isolated particle in a disconnected configuration.
		return []lattice.Point{start}
	}
	if sizeHint < 0 {
		sizeHint = 0
	}
	walk := make([]lattice.Point, 0, sizeHint)
	v, d := start, d0
	for {
		walk = append(walk, v)
		v = v.Neighbor(d)
		// Scan clockwise starting just past the backtrack direction.
		nd := d.Opposite().Prev()
		for !c.Occupied(v.Neighbor(nd)) {
			nd = nd.Prev()
		}
		d = nd
		if v == start && d == d0 {
			return walk
		}
	}
}

// PerimeterWalk returns the length of the outer boundary walk, computed
// independently of the e = 3n − p − 3 identity. For connected hole-free
// configurations it equals Perimeter().
func (c *Config) PerimeterWalk() int {
	if c.n <= 1 {
		return 0
	}
	return len(c.BoundaryWalk())
}

// MinPerimeter returns p_min(n), computed exactly as the perimeter of the
// spiral (hexagon plus partial outer layer) configuration of n particles,
// which realizes the minimum possible perimeter (Lemma 2 construction).
func MinPerimeter(n int) int {
	if n <= 1 {
		return 0
	}
	cfg := New()
	for _, p := range lattice.Spiral(lattice.Point{}, n) {
		if err := cfg.Place(p, 0); err != nil {
			panic("psys: spiral placement failed: " + err.Error())
		}
	}
	return cfg.Perimeter()
}
