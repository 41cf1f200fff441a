package psys

import (
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

// TestGatherPairOverflowStore verifies the gather's fallback path on a
// configuration with overflow (non-dense) particles: adversarially
// spread points that exceed the window budget.
func TestGatherPairOverflowStore(t *testing.T) {
	c := New()
	if err := c.Place(lattice.Point{}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(lattice.Point{Q: 1}, 1); err != nil {
		t.Fatal(err)
	}
	// Far particle: forces the overflow store.
	far := lattice.Point{Q: 1 << 28, R: -(1 << 28)}
	if err := c.Place(far, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(far.Neighbor(0), 0); err != nil {
		t.Fatal(err)
	}
	if c.DenseOnly() {
		t.Fatal("expected an overflow store")
	}
	for _, anchor := range []lattice.Point{{}, {Q: 1}, far, far.Neighbor(0)} {
		for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
			checkGatherAgainstReference(t, c, anchor, d)
		}
	}
}
