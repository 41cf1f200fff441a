package lattice

import (
	"testing"
	"testing/quick"
)

func TestDirectionsSumToZero(t *testing.T) {
	var sum Point
	for d := Direction(0); d < NumDirections; d++ {
		sum = sum.Add(d.Offset())
	}
	if sum != (Point{}) {
		t.Fatalf("direction offsets sum to %v, want origin", sum)
	}
}

func TestOppositeDirections(t *testing.T) {
	for d := Direction(0); d < NumDirections; d++ {
		o := d.Opposite()
		if got := d.Offset().Add(o.Offset()); got != (Point{}) {
			t.Errorf("%v + %v = %v, want origin", d, o, got)
		}
		if o.Opposite() != d {
			t.Errorf("Opposite is not an involution at %v", d)
		}
	}
}

func TestNextPrevInverse(t *testing.T) {
	for d := Direction(0); d < NumDirections; d++ {
		if d.Next().Prev() != d || d.Prev().Next() != d {
			t.Errorf("Next/Prev not inverse at %v", d)
		}
	}
}

func TestNeighborsAreAdjacentAndDistinct(t *testing.T) {
	p := Point{3, -2}
	seen := make(map[Point]bool)
	for _, n := range p.Neighbors() {
		if p.Dist(n) != 1 {
			t.Errorf("neighbor %v at distance %d", n, p.Dist(n))
		}
		if !p.Adjacent(n) {
			t.Errorf("neighbor %v not Adjacent", n)
		}
		if seen[n] {
			t.Errorf("duplicate neighbor %v", n)
		}
		seen[n] = true
	}
	if len(seen) != 6 {
		t.Fatalf("got %d distinct neighbors, want 6", len(seen))
	}
}

func TestDirectionTo(t *testing.T) {
	p := Point{1, 1}
	for d := Direction(0); d < NumDirections; d++ {
		got, ok := p.DirectionTo(p.Neighbor(d))
		if !ok || got != d {
			t.Errorf("DirectionTo neighbor %v = %v, %v", d, got, ok)
		}
	}
	if _, ok := p.DirectionTo(Point{5, 5}); ok {
		t.Error("DirectionTo accepted a non-neighbor")
	}
	if _, ok := p.DirectionTo(p); ok {
		t.Error("DirectionTo accepted the point itself")
	}
}

func TestDistProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	metric := func(aq, ar, bq, br int8) bool {
		a := Point{int(aq), int(ar)}
		b := Point{int(bq), int(br)}
		d := a.Dist(b)
		if d != b.Dist(a) {
			return false
		}
		if (d == 0) != (a == b) {
			return false
		}
		// Triangle inequality through the origin.
		return d <= a.Dist(Point{})+Point{}.Dist(b)
	}
	if err := quick.Check(metric, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDistMatchesBFS(t *testing.T) {
	// Compare the closed form against breadth-first search radius 5.
	origin := Point{}
	dist := map[Point]int{origin: 0}
	frontier := []Point{origin}
	for d := 1; d <= 5; d++ {
		var next []Point
		for _, p := range frontier {
			for _, n := range p.Neighbors() {
				if _, ok := dist[n]; !ok {
					dist[n] = d
					next = append(next, n)
				}
			}
		}
		frontier = next
	}
	for p, want := range dist {
		if got := origin.Dist(p); got != want {
			t.Errorf("Dist(origin, %v) = %d, want %d", p, got, want)
		}
	}
}

func TestRingSizeAndDistance(t *testing.T) {
	c := Point{2, -1}
	for r := 0; r <= 6; r++ {
		ring := Ring(c, r)
		wantLen := 6 * r
		if r == 0 {
			wantLen = 1
		}
		if len(ring) != wantLen {
			t.Fatalf("Ring radius %d has %d points, want %d", r, len(ring), wantLen)
		}
		seen := make(map[Point]bool)
		for _, p := range ring {
			if c.Dist(p) != r {
				t.Fatalf("ring %d point %v at distance %d", r, p, c.Dist(p))
			}
			if seen[p] {
				t.Fatalf("ring %d repeats %v", r, p)
			}
			seen[p] = true
		}
	}
}

func TestRingConsecutiveAdjacent(t *testing.T) {
	ring := Ring(Point{}, 4)
	for i, p := range ring {
		q := ring[(i+1)%len(ring)]
		if !p.Adjacent(q) {
			t.Fatalf("ring points %v and %v not adjacent", p, q)
		}
	}
}

func TestHexagonCount(t *testing.T) {
	for r := 0; r <= 5; r++ {
		got := len(Hexagon(Point{}, r))
		want := 3*r*r + 3*r + 1
		if got != want {
			t.Errorf("Hexagon(%d) has %d vertices, want %d", r, got, want)
		}
	}
}

func TestSpiralPrefixesConnected(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 10, 19, 25, 37, 50} {
		pts := Spiral(Point{}, n)
		if len(pts) != n {
			t.Fatalf("Spiral(%d) returned %d points", n, len(pts))
		}
		occ := make(map[Point]bool, n)
		for _, p := range pts {
			if occ[p] {
				t.Fatalf("Spiral(%d) repeats %v", n, p)
			}
			occ[p] = true
		}
		if !connected(pts) {
			t.Fatalf("Spiral(%d) is disconnected", n)
		}
	}
}

func TestLine(t *testing.T) {
	pts := Line(Point{0, 0}, 5)
	if len(pts) != 5 {
		t.Fatalf("Line returned %d points", len(pts))
	}
	for i := 0; i+1 < len(pts); i++ {
		if !pts[i].Adjacent(pts[i+1]) {
			t.Fatalf("line break between %v and %v", pts[i], pts[i+1])
		}
	}
}

// connected is a reference BFS connectivity check on a point set.
func connected(pts []Point) bool {
	if len(pts) == 0 {
		return true
	}
	occ := make(map[Point]bool, len(pts))
	for _, p := range pts {
		occ[p] = true
	}
	visited := map[Point]bool{pts[0]: true}
	stack := []Point{pts[0]}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range p.Neighbors() {
			if occ[n] && !visited[n] {
				visited[n] = true
				stack = append(stack, n)
			}
		}
	}
	return len(visited) == len(pts)
}

func TestCanonicalizeTranslationInvariant(t *testing.T) {
	err := quick.Check(func(dq, dr int8) bool {
		pts := []Point{{0, 0}, {1, 0}, {0, 1}, {2, -1}}
		shift := Point{int(dq), int(dr)}
		shifted := make([]Point, len(pts))
		for i, p := range pts {
			shifted[i] = p.Add(shift)
		}
		return Key(pts) == Key(shifted)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestKeyDistinguishesShapes(t *testing.T) {
	a := []Point{{0, 0}, {1, 0}, {2, 0}}
	b := []Point{{0, 0}, {1, 0}, {1, 1}}
	if Key(a) == Key(b) {
		t.Fatal("distinct shapes share a key")
	}
}

func TestEdgeCanonical(t *testing.T) {
	p, q := Point{0, 0}, Point{1, 0}
	if NewEdge(p, q) != NewEdge(q, p) {
		t.Fatal("edge canonical form depends on endpoint order")
	}
	if e := NewEdge(q, p); e.A != p || e.B != q {
		t.Fatalf("NewEdge(%v, %v) = %v, want the lesser point first", q, p, e)
	}
}

func TestEdgePanicsOnNonAdjacent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEdge on non-adjacent points did not panic")
		}
	}()
	NewEdge(Point{0, 0}, Point{2, 2})
}

func TestBounds(t *testing.T) {
	lo, hi := Bounds([]Point{{1, 5}, {-3, 2}, {4, -7}})
	if lo != (Point{-3, -7}) || hi != (Point{4, 5}) {
		t.Fatalf("Bounds = %v,%v", lo, hi)
	}
}

func TestXYUnitEdges(t *testing.T) {
	p := Point{2, 3}
	px, py := p.XY()
	for _, n := range p.Neighbors() {
		nx, ny := n.XY()
		dx, dy := nx-px, ny-py
		d2 := dx*dx + dy*dy
		if d2 < 0.999 || d2 > 1.001 {
			t.Errorf("embedded edge to %v has squared length %v, want 1", n, d2)
		}
	}
}

func BenchmarkNeighbors(b *testing.B) {
	p := Point{10, -4}
	for i := 0; i < b.N; i++ {
		_ = p.Neighbors()
	}
}

func BenchmarkDist(b *testing.B) {
	p, q := Point{10, -4}, Point{-7, 13}
	for i := 0; i < b.N; i++ {
		_ = p.Dist(q)
	}
}
