package psys

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sops/internal/lattice"
)

// This file is the differential layer between the sharded TileStore and
// the dense Config, which PR 3/4 proved equivalent to the seed reference
// store: testing/quick and a fixed-seed table drive both through
// identical operation sequences in lockstep, and every shared observable
// must agree after every step.

// applyBothTile applies op to the tile store and the dense reference and
// checks the error verdicts agree. An operation the dense reference refuses
// with ErrSpread (which applyDense checks left it unchanged) is skipped on
// the tile store.
func applyBothTile(ts *TileStore, c *Config, op diffOp) error {
	refused, errC := applyDense(c, op)
	if refused {
		return errC
	}
	if errT := op.apply(ts); (errT == nil) != (errC == nil) {
		return fmt.Errorf("op %+v: tile err %v, dense err %v", op, errT, errC)
	}
	return nil
}

// compareTileStore checks every observable the tile store shares with the
// dense reference: counts, edge statistics, and the full occupancy and
// coloring in canonical order.
func compareTileStore(ts *TileStore, c *Config) error {
	if ts.N() != c.N() {
		return fmt.Errorf("n: tile %d, dense %d", ts.N(), c.N())
	}
	if ts.Edges() != c.Edges() || ts.HomEdges() != c.HomEdges() || ts.HetEdges() != c.HetEdges() {
		return fmt.Errorf("edges: tile e=%d a=%d h=%d, dense e=%d a=%d h=%d",
			ts.Edges(), ts.HomEdges(), ts.HetEdges(), c.Edges(), c.HomEdges(), c.HetEdges())
	}
	if ts.Perimeter() != c.Perimeter() {
		return fmt.Errorf("perimeter: tile %d, dense %d", ts.Perimeter(), c.Perimeter())
	}
	for col := Color(0); col < MaxColors; col++ {
		if ts.ColorCount(col) != c.ColorCount(col) {
			return fmt.Errorf("color %d count: tile %d, dense %d", col, ts.ColorCount(col), c.ColorCount(col))
		}
	}
	tp, cp := ts.Points(), c.Points()
	if len(tp) != len(cp) {
		return fmt.Errorf("points: tile %d, dense %d", len(tp), len(cp))
	}
	for i := range tp {
		if tp[i] != cp[i] {
			return fmt.Errorf("points[%d]: tile %v, dense %v", i, tp[i], cp[i])
		}
		tc, _ := ts.At(tp[i])
		cc, ok := c.At(tp[i])
		if !ok || tc != cc {
			return fmt.Errorf("color at %v: tile %d, dense %d (ok=%v)", tp[i], tc, cc, ok)
		}
	}
	if ts.Connected() != c.Connected() {
		return fmt.Errorf("connected: tile %v, dense %v", ts.Connected(), c.Connected())
	}
	return nil
}

// TestTileDiffRandomOps: arbitrary operation sequences — including the
// far placements that push the dense reference through window growth and
// ErrSpread refusals, and the tile store through directory growth — leave
// both stores observationally identical, with the tile store's
// bookkeeping auditing clean after every operation.
func TestTileDiffRandomOps(t *testing.T) {
	check := func(seq diffSeq) bool {
		ts, c := NewTileStore(), New()
		for i, op := range seq {
			if err := applyBothTile(ts, c, op); err != nil {
				t.Logf("step %d: %v", i, err)
				return false
			}
			if err := ts.Audit(); err != nil {
				t.Logf("step %d (%+v): %v", i, op, err)
				return false
			}
		}
		if err := compareTileStore(ts, c); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 60,
		Rand:     rand.New(rand.NewSource(8)),
	}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTileDiffChainDynamics walks both stores through a long random
// sequence of valid moves and swaps — the chain's actual dynamics, with
// validity decided by the dense store's MoveValid — asserting identical
// occupancy, colors and statistics at every step, over a fixed-seed
// table so failures replay exactly.
func TestTileDiffChainDynamics(t *testing.T) {
	steps := 3000
	if testing.Short() {
		steps = 400
	}
	for _, seed := range []int64{1, 2, 42} {
		r := rand.New(rand.NewSource(seed))
		ts, c := NewTileStore(), New()
		// Start on a line crossing a tile boundary so moves and swaps
		// exercise cross-tile gathers and transfers immediately.
		for i := 0; i < 80; i++ {
			p := lattice.Point{Q: i + lattice.TileSize - 40}
			if err := applyBothTile(ts, c, diffOp{Kind: 0, P: p, Col: Color(i % 3)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < steps; i++ {
			pts := c.Points()
			l := pts[r.Intn(len(pts))]
			d := lattice.Direction(r.Intn(lattice.NumDirections))
			lp := l.Neighbor(d)
			var op diffOp
			if c.Occupied(lp) {
				op = diffOp{Kind: 3, P: l, D: d}
			} else if c.MoveValid(l, lp) {
				op = diffOp{Kind: 2, P: l, D: d}
			} else {
				continue
			}
			if err := applyBothTile(ts, c, op); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
			if err := compareTileStore(ts, c); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
		}
		if err := ts.Audit(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg2, err := ts.ToConfig()
		if err != nil {
			t.Fatalf("seed %d: ToConfig: %v", seed, err)
		}
		if !cfg2.Equal(c) {
			t.Fatalf("seed %d: ToConfig differs from lockstep dense store", seed)
		}
	}
}

// TestTileGatherMatchesDense: the tile store's gather kernel produces the
// byte-identical packed view as the dense store's on the same
// configuration, for every particle and direction — including particles
// on tile boundaries (per-cell fallback path) and next to absent tiles.
func TestTileGatherMatchesDense(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ts, c := NewTileStore(), New()
		// Random connected blob straddling a tile corner.
		origin := lattice.Point{Q: lattice.TileSize - 3, R: lattice.TileSize - 3}
		pts := []lattice.Point{origin}
		if err := applyBothTile(ts, c, diffOp{Kind: 0, P: origin, Col: Color(r.Intn(3))}); err != nil {
			t.Fatal(err)
		}
		for len(pts) < 60 {
			base := pts[r.Intn(len(pts))]
			p := base.Neighbor(lattice.Direction(r.Intn(lattice.NumDirections)))
			if c.Occupied(p) {
				continue
			}
			if err := applyBothTile(ts, c, diffOp{Kind: 0, P: p, Col: Color(r.Intn(3))}); err != nil {
				t.Fatal(err)
			}
			pts = append(pts, p)
		}
		for _, l := range pts {
			for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
				if ts.GatherPair(l, d) != c.GatherPair(l, d) {
					t.Logf("gather mismatch at %v dir %v: tile %+v dense %+v",
						l, d, ts.GatherPair(l, d), c.GatherPair(l, d))
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTileStoreStringyMemory: the tile store's reason to exist. A
// diagonal line of 100k particles has a 100k×100k bounding box — a dense
// window would need 10¹⁰ one-byte cells — yet occupies one tile per 64
// cells of its length. The store must hold it in O(n/TileSize) tiles with exact
// statistics and connectivity.
func TestTileStoreStringyMemory(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	ts := NewTileStore()
	for i := 0; i < n; i++ {
		// SE-direction neighbors: (Q+1, R-1) — a diagonal of the
		// triangular lattice, the worst case for a bounding-box store.
		if err := ts.Place(lattice.Point{Q: i, R: -i}, Color(i&1)); err != nil {
			t.Fatal(err)
		}
	}
	if ts.N() != n {
		t.Fatalf("n = %d, want %d", ts.N(), n)
	}
	if ts.Edges() != n-1 {
		t.Fatalf("edges = %d, want %d", ts.Edges(), n-1)
	}
	if !ts.Connected() {
		t.Fatal("diagonal line must be connected")
	}
	// One 64-cell diagonal run touches 2 tile rows' worth of tiles at
	// most: the directory must stay linear in n/TileSize, nowhere near
	// the (n/TileSize)² of a dense tile grid.
	maxTiles := 4 * (n/lattice.TileSize + 2)
	if got := ts.TileCount(); got > maxTiles {
		t.Fatalf("directory holds %d tiles, want ≤ %d", got, maxTiles)
	}
	if err := ts.Audit(); err != nil {
		t.Fatal(err)
	}
}
