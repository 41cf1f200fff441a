// Package lattice implements the geometry of the infinite triangular lattice
// G_Δ on which self-organizing particle systems live (amoebot model, §2.1 of
// the paper).
//
// Vertices are addressed with axial coordinates (Q, R). Every vertex has six
// neighbors, obtained by adding one of the six unit Directions. With the
// standard axial embedding this is exactly the triangular lattice: the
// neighbor offsets are (±1,0), (0,±1), (+1,−1) and (−1,+1), and three
// mutually adjacent vertices form a unit triangle.
package lattice

import (
	"fmt"
	"sort"
)

// Point is a vertex of the triangular lattice in axial coordinates.
type Point struct {
	Q, R int
}

// String renders the point as "(q,r)".
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.Q, p.R) }

// Add returns the vector sum p + d.
func (p Point) Add(d Point) Point { return Point{p.Q + d.Q, p.R + d.R} }

// Sub returns the vector difference p − d.
func (p Point) Sub(d Point) Point { return Point{p.Q - d.Q, p.R - d.R} }

// Direction indexes one of the six lattice directions, 0 through 5,
// in counterclockwise order starting from East.
type Direction int

// NumDirections is the degree of every vertex of G_Δ.
const NumDirections = 6

// directions lists the six axial unit vectors in counterclockwise order:
// E, NE, NW, W, SW, SE.
var directions = [NumDirections]Point{
	{1, 0},  // E
	{0, 1},  // NE
	{-1, 1}, // NW
	{-1, 0}, // W
	{0, -1}, // SW
	{1, -1}, // SE
}

var directionNames = [NumDirections]string{"E", "NE", "NW", "W", "SW", "SE"}

// String returns the compass name of the direction.
func (d Direction) String() string {
	if d < 0 || d >= NumDirections {
		return fmt.Sprintf("Direction(%d)", int(d))
	}
	return directionNames[d]
}

// Offset returns the axial unit vector of direction d.
func (d Direction) Offset() Point { return directions[d] }

// Opposite returns the direction rotated by 180 degrees.
func (d Direction) Opposite() Direction { return (d + 3) % NumDirections }

// Next returns the direction rotated counterclockwise by 60 degrees.
func (d Direction) Next() Direction { return (d + 1) % NumDirections }

// Prev returns the direction rotated clockwise by 60 degrees.
func (d Direction) Prev() Direction { return (d + 5) % NumDirections }

// Neighbor returns the vertex adjacent to p in direction d.
func (p Point) Neighbor(d Direction) Point { return p.Add(directions[d]) }

// Neighbors returns the six vertices adjacent to p in counterclockwise
// order starting from East.
func (p Point) Neighbors() (out [NumDirections]Point) {
	for i := range directions {
		out[i] = p.Add(directions[i])
	}
	return out
}

// DirectionTo returns the direction from p to the adjacent vertex q.
// The second result is false if q is not adjacent to p.
func (p Point) DirectionTo(q Point) (Direction, bool) {
	d := q.Sub(p)
	for i := range directions {
		if directions[i] == d {
			return Direction(i), true
		}
	}
	return 0, false
}

// Adjacent reports whether p and q are joined by an edge of G_Δ.
func (p Point) Adjacent(q Point) bool {
	_, ok := p.DirectionTo(q)
	return ok
}

// Dist returns the graph distance between p and q on G_Δ.
func (p Point) Dist(q Point) int {
	dq, dr := p.Q-q.Q, p.R-q.R
	return (abs(dq) + abs(dr) + abs(dq+dr)) / 2
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Edge is an undirected lattice edge stored in canonical orientation
// (A is the lexicographically smaller endpoint).
type Edge struct {
	A, B Point
}

// NewEdge returns the canonical form of the edge {p, q}.
// It panics if p and q are not adjacent.
func NewEdge(p, q Point) Edge {
	if !p.Adjacent(q) {
		panic(fmt.Sprintf("lattice: %v and %v are not adjacent", p, q))
	}
	if less(q, p) {
		p, q = q, p
	}
	return Edge{A: p, B: q}
}

// less orders points lexicographically by (Q, R).
func less(a, b Point) bool {
	if a.Q != b.Q {
		return a.Q < b.Q
	}
	return a.R < b.R
}

// Less reports whether a sorts before b in the canonical point order.
func Less(a, b Point) bool { return less(a, b) }

// SortPoints sorts pts in place in the canonical point order.
func SortPoints(pts []Point) {
	sort.Slice(pts, func(i, j int) bool { return less(pts[i], pts[j]) })
}

// Canonicalize translates the point set so that its lexicographically
// smallest point (after sorting) moves to the origin, and returns the sorted
// translated set. Two point sets are translations of each other iff their
// canonical forms are equal, which realizes the paper's definition of a
// configuration as a translation-equivalence class of arrangements.
func Canonicalize(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	out := make([]Point, len(pts))
	copy(out, pts)
	SortPoints(out)
	base := out[0]
	for i := range out {
		out[i] = out[i].Sub(base)
	}
	return out
}

// Key returns a compact string key identifying the point set up to
// translation. Useful for deduplicating configurations during enumeration.
func Key(pts []Point) string {
	canon := Canonicalize(pts)
	b := make([]byte, 0, len(canon)*8)
	for _, p := range canon {
		b = appendInt(b, p.Q)
		b = append(b, ',')
		b = appendInt(b, p.R)
		b = append(b, ';')
	}
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}

// Ring returns the vertices at graph distance exactly radius from center, in
// a single counterclockwise pass. Ring(c, 0) is {c}.
func Ring(center Point, radius int) []Point {
	if radius < 0 {
		panic("lattice: negative radius")
	}
	if radius == 0 {
		return []Point{center}
	}
	out := make([]Point, 0, 6*radius)
	// Start at the vertex radius steps West, then walk the six sides.
	p := center
	for i := 0; i < radius; i++ {
		p = p.Neighbor(3) // W
	}
	for side := Direction(0); side < NumDirections; side++ {
		// Walking direction for each side traverses the hexagon boundary.
		walk := (side + 5) % NumDirections
		for step := 0; step < radius; step++ {
			out = append(out, p)
			p = p.Neighbor(walk)
		}
	}
	return out
}

// Hexagon returns all vertices within graph distance radius of center —
// the regular hexagon of side radius, containing 3r²+3r+1 vertices.
// These are the minimum-perimeter configurations used in Lemma 2.
func Hexagon(center Point, radius int) []Point {
	out := make([]Point, 0, 3*radius*radius+3*radius+1)
	for r := 0; r <= radius; r++ {
		out = append(out, Ring(center, r)...)
	}
	return out
}

// Spiral returns n vertices filling rings around center from the inside out,
// truncating the outermost ring. It yields a connected, hole-free, nearly
// minimal-perimeter configuration of n particles for any n ≥ 1 — the
// construction used in the proof of Lemma 2 (hexagon plus a partial layer).
func Spiral(center Point, n int) []Point {
	if n <= 0 {
		return nil
	}
	out := make([]Point, 0, n)
	for r := 0; len(out) < n; r++ {
		ring := Ring(center, r)
		for _, p := range ring {
			if len(out) == n {
				return out
			}
			out = append(out, p)
		}
	}
	return out
}

// Line returns n collinear vertices starting at origin heading East: the
// maximum-perimeter connected configuration, used as a worst-case initial
// state in experiments.
func Line(origin Point, n int) []Point {
	out := make([]Point, n)
	p := origin
	for i := 0; i < n; i++ {
		out[i] = p
		p = p.Neighbor(0)
	}
	return out
}

// Bounds returns the axial-coordinate bounding box (inclusive) of pts.
// It panics on an empty slice.
func Bounds(pts []Point) (minimum, maximum Point) {
	if len(pts) == 0 {
		panic("lattice: Bounds of empty point set")
	}
	minimum, maximum = pts[0], pts[0]
	for _, p := range pts[1:] {
		if p.Q < minimum.Q {
			minimum.Q = p.Q
		}
		if p.R < minimum.R {
			minimum.R = p.R
		}
		if p.Q > maximum.Q {
			maximum.Q = p.Q
		}
		if p.R > maximum.R {
			maximum.R = p.R
		}
	}
	return minimum, maximum
}

// XY maps p to Cartesian coordinates of the standard unit-edge embedding of
// the triangular lattice (used for rendering).
func (p Point) XY() (x, y float64) {
	x = float64(p.Q) + float64(p.R)/2
	y = float64(p.R) * 0.8660254037844386 // sqrt(3)/2
	return x, y
}
