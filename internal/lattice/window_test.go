package lattice

import "testing"

func TestWindowCovering(t *testing.T) {
	w := WindowCovering(Point{-2, 1}, Point{3, 4}, 2)
	if w.Min != (Point{-4, -1}) || w.W != 10 || w.H != 8 {
		t.Fatalf("unexpected window %+v", w)
	}
	if w.Max() != (Point{5, 6}) {
		t.Fatalf("Max = %v", w.Max())
	}
	if w.Area() != 80 {
		t.Fatalf("Area = %d", w.Area())
	}
	if w.Empty() {
		t.Fatal("non-degenerate window reported empty")
	}
	if !(Window{}).Empty() {
		t.Fatal("zero window not empty")
	}
}

func TestWindowCoveringPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"inverted": func() { WindowCovering(Point{1, 0}, Point{0, 0}, 0) },
		"margin":   func() { WindowCovering(Point{}, Point{}, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestWindowIndexRoundTrip: Index and PointAt are inverse bijections between
// the window's vertices and [0, Area).
func TestWindowIndexRoundTrip(t *testing.T) {
	w := WindowCovering(Point{-3, 5}, Point{4, 9}, 1)
	seen := make([]bool, w.Area())
	for q := w.Min.Q; q <= w.Max().Q; q++ {
		for r := w.Min.R; r <= w.Max().R; r++ {
			p := Point{q, r}
			if !w.Contains(p) {
				t.Fatalf("window does not contain its own vertex %v", p)
			}
			i := w.Index(p)
			if i < 0 || i >= w.Area() {
				t.Fatalf("index %d of %v out of range", i, p)
			}
			if seen[i] {
				t.Fatalf("index %d hit twice", i)
			}
			seen[i] = true
			if got := w.PointAt(i); got != p {
				t.Fatalf("PointAt(Index(%v)) = %v", p, got)
			}
		}
	}
	for _, p := range []Point{
		{w.Min.Q - 1, w.Min.R}, {w.Min.Q, w.Min.R - 1},
		{w.Max().Q + 1, w.Max().R}, {w.Max().Q, w.Max().R + 1},
	} {
		if w.Contains(p) {
			t.Fatalf("window contains outside point %v", p)
		}
	}
}

// TestWindowNeighborOffsets: for every interior vertex, adding the offset
// for direction d to the vertex's index yields exactly the index of its
// lattice neighbor in direction d.
func TestWindowNeighborOffsets(t *testing.T) {
	w := WindowCovering(Point{0, 0}, Point{6, 4}, 0)
	offs := w.NeighborOffsets()
	interior := 0
	for q := w.Min.Q; q <= w.Max().Q; q++ {
		for r := w.Min.R; r <= w.Max().R; r++ {
			p := Point{q, r}
			if !w.Interior(p) {
				continue
			}
			interior++
			for d := Direction(0); d < NumDirections; d++ {
				nb := p.Neighbor(d)
				if !w.Contains(nb) {
					t.Fatalf("neighbor %v of interior %v escapes window", nb, p)
				}
				if w.Index(p)+offs[d] != w.Index(nb) {
					t.Fatalf("offset for %v at %v: %d, want %d",
						d, p, w.Index(p)+offs[d], w.Index(nb))
				}
			}
		}
	}
	if interior != 5*3 {
		t.Fatalf("interior count %d, want 15", interior)
	}
}

// TestWindowInteriorBorder: border vertices are contained but not interior.
func TestWindowInteriorBorder(t *testing.T) {
	w := WindowCovering(Point{0, 0}, Point{3, 3}, 1)
	for _, p := range []Point{w.Min, w.Max(), {w.Min.Q, w.Max().R}, {w.Max().Q, w.Min.R}} {
		if !w.Contains(p) || w.Interior(p) {
			t.Fatalf("corner %v: contains=%v interior=%v", p, w.Contains(p), w.Interior(p))
		}
	}
	if !w.Interior(Point{0, 0}) {
		t.Fatal("margin-1 window must keep the covered box interior")
	}
}

// TestWindowColumnTraversal: walking indexes column by column (fixed Q,
// stride W) enumerates vertices in the canonical lexicographic point order.
func TestWindowColumnTraversal(t *testing.T) {
	w := WindowCovering(Point{-1, -2}, Point{2, 1}, 0)
	var walk []Point
	for q := 0; q < w.W; q++ {
		for r := 0; r < w.H; r++ {
			walk = append(walk, w.PointAt(r*w.W+q))
		}
	}
	for i := 1; i < len(walk); i++ {
		if !Less(walk[i-1], walk[i]) {
			t.Fatalf("column traversal out of canonical order at %d: %v then %v",
				i, walk[i-1], walk[i])
		}
	}
}
