package psys

import (
	"testing"

	"sops/internal/lattice"
)

// FuzzTileWindow fuzzes the tile directory's growth machinery: an
// arbitrary byte string decodes to a stream of place/remove/move/swap
// operations whose coordinates span several scales — small patches keep
// operations colliding inside and across tile boundaries, large scales
// force directory growth and open-addressing rehashes (and push the
// mirrored dense reference through window regrows and past its area
// budget, where it refuses the operation with ErrSpread, stays unchanged,
// and the tile store skips it). Every other operation is mirrored on the
// dense Config, which the differential tests hold to the seed's reference
// store; verdicts and observables must agree, the tile directory's
// raw-storage audit must stay clean throughout, and every occupied
// anchor's packed gather view must match the dense kernel's.
func FuzzTileWindow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	// A run along a tile boundary: Q = 63,64,65 crossing moves.
	f.Add([]byte{0, 63, 0, 0, 0, 64, 0, 1, 0, 65, 0, 2, 2, 63, 0, 3})
	// Far placements at three scales: directory growth + rehash, and the
	// dense reference's ErrSpread refusals.
	f.Add([]byte{0x40, 100, 100, 0, 0x80, 100, 100, 1, 0xc0, 100, 100, 2, 1, 0, 0, 0})
	// Place a line, move its head, swap the tail.
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 1, 0, 2, 0, 0, 2, 2, 0, 0, 3, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		ts, c := NewTileStore(), New()
		var anchors []lattice.Point
		for len(data) >= 4 {
			b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
			data = data[4:]
			// Bits 6–7 of b0 pick the coordinate scale. Scale 1 clusters
			// around the origin's tile corner; the offset by TileSize/2
			// in the small case keeps half the patch on each side of a
			// boundary.
			scale := [4]int{1, 37, 1 << 11, 1 << 24}[b0>>6&3]
			p := lattice.Point{Q: int(int8(b1)) * scale, R: int(int8(b2)) * scale}
			op := diffOp{
				Kind: b0 & 3,
				P:    p,
				D:    lattice.Direction(b3 % lattice.NumDirections),
				// Occasionally out of range, to cover the rejection path.
				Col: Color(b3 & 31),
			}
			if err := applyBothTile(ts, c, op); err != nil {
				t.Fatal(err)
			}
			if err := ts.Audit(); err != nil {
				t.Fatalf("after %+v: %v", op, err)
			}
			anchors = append(anchors, p)
		}
		if err := compareTileStore(ts, c); err != nil {
			t.Fatal(err)
		}
		for _, l := range anchors {
			for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
				if ts.GatherPair(l, d) != c.GatherPair(l, d) {
					t.Fatalf("gather mismatch at %v dir %v", l, d)
				}
			}
		}
	})
}
