package lattice

import "fmt"

// Window is a finite axially-aligned rectangle of lattice vertices, mapped
// to a contiguous row-major index range: vertex (Q, R) has index
// (R − Min.R)·W + (Q − Min.Q). It is the address space of dense flat-array
// occupancy stores — the hot-path alternative to hash maps for neighborhood
// queries, in the style of the AmoebotSim particle grids.
//
// Row-major layout makes the six lattice directions constant index offsets
// (NeighborOffsets), valid for every vertex in the window's Interior. Column
// traversal (PointAt with stride W) visits vertices in the canonical
// lexicographic (Q, R) point order.
type Window struct {
	Min  Point // inclusive lower corner
	W, H int   // extent along Q and R; empty window has W == H == 0
}

// WindowCovering returns the smallest window containing every vertex of the
// inclusive box [lo, hi] inflated by margin cells on all four sides.
// It panics on an inverted box or negative margin.
func WindowCovering(lo, hi Point, margin int) Window {
	if hi.Q < lo.Q || hi.R < lo.R {
		panic(fmt.Sprintf("lattice: inverted window box %v..%v", lo, hi))
	}
	if margin < 0 {
		panic("lattice: negative window margin")
	}
	return Window{
		Min: Point{Q: lo.Q - margin, R: lo.R - margin},
		W:   hi.Q - lo.Q + 1 + 2*margin,
		H:   hi.R - lo.R + 1 + 2*margin,
	}
}

// Empty reports whether the window contains no vertices.
func (w Window) Empty() bool { return w.W == 0 || w.H == 0 }

// Area returns the number of vertices in the window. Callers constructing
// very large windows should bound W and H before multiplying; Area itself
// assumes the product fits in an int.
func (w Window) Area() int { return w.W * w.H }

// Max returns the inclusive upper corner. Meaningless for empty windows.
func (w Window) Max() Point {
	return Point{Q: w.Min.Q + w.W - 1, R: w.Min.R + w.H - 1}
}

// Contains reports whether p lies in the window.
func (w Window) Contains(p Point) bool {
	return p.Q >= w.Min.Q && p.Q < w.Min.Q+w.W &&
		p.R >= w.Min.R && p.R < w.Min.R+w.H
}

// Interior reports whether p lies in the window at distance at least one
// from every edge, so that all six neighbors of p are also in the window and
// NeighborOffsets applied to p's index address them correctly.
func (w Window) Interior(p Point) bool {
	return p.Q > w.Min.Q && p.Q < w.Min.Q+w.W-1 &&
		p.R > w.Min.R && p.R < w.Min.R+w.H-1
}

// Index returns the row-major slice index of p. The caller must ensure
// Contains(p); out-of-window points silently alias other cells.
func (w Window) Index(p Point) int {
	return (p.R-w.Min.R)*w.W + (p.Q - w.Min.Q)
}

// PointAt is the inverse of Index.
func (w Window) PointAt(i int) Point {
	return Point{Q: w.Min.Q + i%w.W, R: w.Min.R + i/w.W}
}

// NeighborOffsets returns the six index deltas corresponding to the lattice
// Directions (E, NE, NW, W, SW, SE) under the window's row-major layout.
// The offsets are exact for vertices in the Interior; applied at an edge
// vertex they wrap to an unrelated cell, so stores must keep a vacant border
// ring or bounds-check explicitly.
func (w Window) NeighborOffsets() [NumDirections]int {
	return [NumDirections]int{
		1,        // E  (+1, 0)
		w.W,      // NE (0, +1)
		w.W - 1,  // NW (−1, +1)
		-1,       // W  (−1, 0)
		-w.W,     // SW (0, −1)
		-w.W + 1, // SE (+1, −1)
	}
}
