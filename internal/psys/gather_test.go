package psys

import (
	"bytes"
	"errors"
	"testing"

	"sops/internal/lattice"
	"sops/internal/rng"
)

// checkGatherAgainstReference compares every kernel quantity of
// GatherPair(l, dir) with the readable reference implementations
// (Degree, ColorDegree*, Property4, Property5) on cfg.
func checkGatherAgainstReference(t *testing.T, c *Config, l lattice.Point, dir lattice.Direction) {
	t.Helper()
	lp := l.Neighbor(dir)
	g := c.GatherPair(l, dir)
	tab := &pairTables[dir]

	// Ring occupancy and packed colors against per-point reads.
	for k, d := range tab.pts {
		p := l.Add(d)
		col, ok := c.At(p)
		if got := g.occ>>k&1 == 1; got != ok {
			t.Fatalf("l=%v dir=%v ring[%d]=%v: occupancy bit %v, want %v", l, dir, k, p, got, ok)
		}
		wantByte := uint8(0)
		if ok {
			wantByte = uint8(col) + 1
		}
		if got := uint8(g.ring >> (8 * k)); got != wantByte {
			t.Fatalf("l=%v dir=%v ring[%d]=%v: packed byte %d, want %d", l, dir, k, p, got, wantByte)
		}
	}
	ci, lOcc := g.LColor()
	if wantCol, wantOcc := c.At(l); lOcc != wantOcc || (lOcc && ci != wantCol) {
		t.Fatalf("l=%v dir=%v: LColor (%v,%v), want (%v,%v)", l, dir, ci, lOcc, wantCol, wantOcc)
	}
	cj, lpOcc := g.LpColor()
	if wantCol, wantOcc := c.At(lp); lpOcc != wantOcc || (lpOcc && cj != wantCol) {
		t.Fatalf("l=%v dir=%v: LpColor (%v,%v), want (%v,%v)", l, dir, cj, lpOcc, wantCol, wantOcc)
	}

	if lOcc && !lpOcc {
		wantOK := c.Degree(l) != 5 && (c.Property4(l, lp) || c.Property5(l, lp))
		if got := MoveOK(g.Dir(), g.Occ()); got != wantOK {
			t.Fatalf("l=%v dir=%v: MoveOK %v, reference %v", l, dir, got, wantOK)
		}
		wantDL := c.DegreeExcluding(lp, l) - c.Degree(l)
		wantDG := c.ColorDegreeExcluding(lp, l, ci) - c.ColorDegree(l, ci)
		if dl, dg := g.MoveExponents(); dl != wantDL || dg != wantDG {
			t.Fatalf("l=%v dir=%v: MoveExponents (%d,%d), reference (%d,%d)", l, dir, dl, dg, wantDL, wantDG)
		}
	}
	if lOcc && lpOcc {
		want := c.ColorDegreeExcluding(lp, l, ci) - c.ColorDegree(l, ci) +
			c.ColorDegreeExcluding(l, lp, cj) - c.ColorDegree(lp, cj)
		if got := g.SwapExponent(); got != want {
			t.Fatalf("l=%v dir=%v: SwapExponent %d, reference %d", l, dir, got, want)
		}
	}
}

// TestGatherPairMatchesReference drives randomized configurations —
// including sparse ones near the window edge, so both the single-gather
// fast path and the per-point fallback are exercised — and checks every
// (particle, direction) pair against the reference implementations.
func TestGatherPairMatchesReference(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		c := New()
		n := 2 + r.Intn(40)
		span := 1 + r.Intn(8)
		cols := 1 + r.Intn(4)
		for i := 0; i < n; i++ {
			p := lattice.Point{Q: r.Intn(2*span+1) - span, R: r.Intn(2*span+1) - span}
			_ = c.Place(p, Color(r.Intn(cols))) // duplicates rejected, fine
		}
		for _, pt := range c.Particles() {
			for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
				checkGatherAgainstReference(t, c, pt.Pos, d)
			}
		}
		// Also probe vacant anchors adjacent to the configuration.
		for _, pt := range c.Particles()[:1] {
			for _, nb := range pt.Pos.Neighbors() {
				if !c.Occupied(nb) {
					for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
						checkGatherAgainstReference(t, c, nb, d)
					}
				}
			}
		}
	}
}

// tightConfig builds parts into a window of margin 1 around their bounding
// box, so every particle on the box's edge sits at depth 1 — the window a
// configuration has after drifting, which NewFrom and grow never make.
func tightConfig(t *testing.T, parts []Particle) *Config {
	t.Helper()
	lo, hi := parts[0].Pos, parts[0].Pos
	for _, pt := range parts {
		lo, hi = stretch(lo, hi, pt.Pos)
	}
	c := New()
	win := lattice.WindowCovering(lo, hi, 1)
	c.home(win)
	for _, pt := range parts {
		if err := c.Place(pt.Pos, pt.Color); err != nil {
			t.Fatal(err)
		}
	}
	if c.win != win {
		t.Fatalf("window moved from %+v to %+v", win, c.win)
	}
	return c
}

// atDepth2 reports whether p lies in w at distance at least two from
// every edge.
func atDepth2(w lattice.Window, p lattice.Point) bool {
	return lattice.Window{Min: w.Min.Add(lattice.Point{Q: 1, R: 1}), W: w.W - 2, H: w.H - 2}.Interior(p)
}

// checkIndexGather holds GatherAt at every particle's window index to
// GatherPairFrom over the per-point read path, in every direction.
func checkIndexGather(t *testing.T, c *Config) {
	t.Helper()
	c.ForEach(func(p lattice.Point, _ Color) {
		for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
			if got, want := c.GatherAt(c.win.Index(p), d), GatherPairFrom(c.colorAt, p, d); got != want {
				t.Fatalf("window %+v: GatherAt(%v, %v) = %+v, GatherPairFrom %+v", c.win, p, d, got, want)
			}
		}
	})
}

// TestIndexGatherDepthOne holds the index gather to the general path on
// hand-built windows whose particles sit at depth 1 on all four sides and
// in all four corners: random subsets of a Q × R parallelogram that keep
// its four corners and one cell of every side, in windows from 3 cells
// wide up. There ring cells fall off the window — onto the border column
// of the adjacent row, or past either end onto the plane's pad — and the
// gather is exact only because those cells are vacant.
func TestIndexGatherDepthOne(t *testing.T) {
	r := rng.New(29)
	for w := 1; w <= 7; w++ {
		for h := 1; h <= 7; h++ {
			for trial := 0; trial < 8; trial++ {
				var parts []Particle
				for q := 0; q < w; q++ {
					for rr := 0; rr < h; rr++ {
						corner := (q == 0 || q == w-1) && (rr == 0 || rr == h-1)
						side := q == w/2 || rr == h/2
						if corner || (side && (q == 0 || q == w-1 || rr == 0 || rr == h-1)) || r.Intn(2) == 0 {
							parts = append(parts, Particle{lattice.Point{Q: q - 3, R: rr + 5}, Color(r.Intn(3))})
						}
					}
				}
				c := tightConfig(t, parts)
				checkIndexGather(t, c)
				// Vacant cells at depth 1 take the same fast path through
				// GatherPair.
				for i := range c.cells {
					if p := c.win.PointAt(i); c.win.Interior(p) {
						for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
							if got, want := c.GatherPair(p, d), GatherPairFrom(c.colorAt, p, d); got != want {
								t.Fatalf("window %+v: GatherPair(%v, %v) = %+v, GatherPairFrom %+v", c.win, p, d, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestOccMaskExhaustive checks the branch-free occupancy mask on all 256
// lane patterns. Occupied lanes hold the extreme bytes 0x01, 0x7f, 0x80
// and 0xff, then random nonzero bytes: the SWAR test must report a lane
// whatever its value, high bit included.
func TestOccMaskExhaustive(t *testing.T) {
	r := rng.New(19)
	for m := 0; m < 1<<pairRingSize; m++ {
		for trial := 0; trial < 20; trial++ {
			var ring uint64
			for k := 0; k < pairRingSize; k++ {
				if m>>k&1 == 0 {
					continue
				}
				v := uint64(1 + r.Intn(255))
				if trial < 4 {
					v = [4]uint64{0x01, 0x7f, 0x80, 0xff}[trial]
				}
				ring |= v << (8 * k)
			}
			if got := occMask(ring); got != uint8(m) {
				t.Fatalf("occMask(%#016x) = %#08b, want %#08b", ring, got, m)
			}
		}
	}
}

// TestRingCommitMatchesRemovePlace drives the gathered-ring commit of
// ApplyMove and ApplySwap over every direction and all 256 ring
// occupancies with random colors (k = 3), twice: with l at window depth
// ≥ 2, and in a margin-1 window around the particles, where l sits at
// depth 1 whenever it is on the bounding box's edge and a move's target
// may land on the border ring (the Remove + Place path, which re-homes
// the window). After each commit the cells, e(σ) and a(σ) must equal
// Remove + Place on a clone, and every observable must equal the
// map-backed reference store's. CheckCounts must hold after every
// commit; CheckInvariants must hold after one that started clean and was
// a swap or a move the validity table allows.
func TestRingCommitMatchesRemovePlace(t *testing.T) {
	r := rng.New(23)
	l := lattice.Point{}
	depth1, border := 0, 0
	for dir := lattice.Direction(0); dir < lattice.NumDirections; dir++ {
		lp := l.Neighbor(dir)
		for occ := 0; occ < 1<<pairRingSize; occ++ {
			for _, swap := range []bool{false, true} {
				parts := []Particle{{l, Color(r.Intn(3))}}
				if swap {
					parts = append(parts, Particle{lp, Color(r.Intn(3))})
				}
				for k, d := range pairTables[dir].pts {
					if occ>>k&1 == 1 {
						parts = append(parts, Particle{l.Add(d), Color(r.Intn(3))})
					}
				}
				deep := mustConfig(t, parts)
				if !atDepth2(deep.win, l) {
					t.Fatalf("dir=%v occ=%#x: l not at depth 2", dir, occ)
				}
				for _, fast := range []*Config{deep, tightConfig(t, parts)} {
					if !atDepth2(fast.win, l) {
						depth1++
					}
					if !swap && !fast.win.Interior(lp) {
						border++
					}
					slow := fast.Clone()
					ref := newRef()
					for _, pt := range parts {
						if err := ref.Place(pt.Pos, pt.Color); err != nil {
							t.Fatal(err)
						}
					}
					clean := fast.CheckInvariants() == nil
					cl, cp := parts[0].Color, Color(0)
					var err, refErr error
					if swap {
						cp = parts[1].Color
						err, refErr = fast.ApplySwap(l, lp), ref.ApplySwap(l, lp)
						if cl != cp {
							mustOK(t, slow.Remove(l), slow.Remove(lp), slow.Place(l, cp), slow.Place(lp, cl))
						}
					} else {
						err, refErr = fast.ApplyMove(l, lp), ref.ApplyMove(l, lp)
						mustOK(t, slow.Remove(l), slow.Place(lp, cl))
						clean = clean && MoveOK(dir, uint8(occ))
					}
					if err != nil || refErr != nil {
						t.Fatalf("dir=%v occ=%#x swap=%v: err %v, reference %v", dir, occ, swap, err, refErr)
					}
					if fast.win != slow.win || !bytes.Equal(fast.cells, slow.cells) {
						t.Fatalf("dir=%v occ=%#x swap=%v: cells differ from Remove + Place", dir, occ, swap)
					}
					if fast.Edges() != slow.Edges() || fast.HomEdges() != slow.HomEdges() {
						t.Fatalf("dir=%v occ=%#x swap=%v: e=%d a=%d, Remove + Place e=%d a=%d",
							dir, occ, swap, fast.Edges(), fast.HomEdges(), slow.Edges(), slow.HomEdges())
					}
					if err := compareStores(fast, ref); err != nil {
						t.Fatalf("dir=%v occ=%#x swap=%v: %v", dir, occ, swap, err)
					}
					if err := fast.CheckCounts(); err != nil {
						t.Fatalf("dir=%v occ=%#x swap=%v: %v", dir, occ, swap, err)
					}
					if err := fast.CheckInvariants(); clean && err != nil {
						t.Fatalf("dir=%v occ=%#x swap=%v: %v", dir, occ, swap, err)
					}
				}
			}
		}
	}
	if depth1 == 0 || border == 0 {
		t.Fatalf("%d commits with l at depth 1, %d moves onto the border ring; want both", depth1, border)
	}
	t.Logf("%d commits with l at depth 1, %d moves onto the border ring", depth1, border)
}

// TestRingCommitErrors pins the fast path's verdicts to the general
// path's: the same sentinel errors in the same order, wrapped with the
// same context, and a same-colored swap a no-op.
func TestRingCommitErrors(t *testing.T) {
	c := mustConfig(t, []Particle{{lattice.Point{}, 0}, {lattice.Point{Q: 1}, 0}, {lattice.Point{Q: 2}, 1}})
	vacant := lattice.Point{R: 1}
	for _, tc := range []struct {
		err  error
		want error
		msg  string
	}{
		{c.ApplyMove(lattice.Point{}, lattice.Point{Q: 2}), ErrNotAdjacent, ErrNotAdjacent.Error()},
		{c.ApplyMove(vacant, vacant.Neighbor(0)), ErrVacant, "move from (0,1): " + ErrVacant.Error()},
		{c.ApplyMove(lattice.Point{}, lattice.Point{Q: 1}), ErrOccupied, "move to (1,0): " + ErrOccupied.Error()},
		{c.ApplySwap(lattice.Point{}, lattice.Point{Q: 2}), ErrNotAdjacent, ErrNotAdjacent.Error()},
		{c.ApplySwap(vacant, lattice.Point{}), ErrVacant, "swap at (0,1): " + ErrVacant.Error()},
		{c.ApplySwap(lattice.Point{}, vacant), ErrVacant, "swap at (0,1): " + ErrVacant.Error()},
		{c.ApplySwap(lattice.Point{}, lattice.Point{Q: 1}), nil, ""},
	} {
		if !errors.Is(tc.err, tc.want) || (tc.err != nil && tc.err.Error() != tc.msg) {
			t.Errorf("got %v, want %q", tc.err, tc.msg)
		}
	}
	if err := c.CheckCounts(); err != nil {
		t.Fatal(err)
	}
}

func mustOK(t *testing.T, errs ...error) {
	t.Helper()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
