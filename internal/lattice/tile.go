package lattice

// Tile geometry for the sharded occupancy store. The plane of axial
// coordinates is partitioned into fixed-size square tiles of
// TileSize × TileSize cells; a tile is identified by the floor-divided
// coordinates of its cells. Tiles exist so a sparse directory of dense
// per-tile byte planes can cover configurations whose bounding box is
// enormous (a stringy configuration of n particles spans an O(n)×O(n)
// box, far beyond any single dense window's budget) while keeping the
// in-tile addressing of the hot path a shift and a mask.

// TileShift is log2 of the tile edge length. 64×64 cells (4 KiB of
// occupancy bytes) keeps a tile within a page, makes the interior —
// where a gather never crosses a tile boundary — 88% of the cells, and
// bounds the directory at one entry per 4096 cells.
const (
	TileShift = 6
	// TileSize is the tile edge length in cells.
	TileSize = 1 << TileShift
	// TileArea is the number of cells per tile.
	TileArea = TileSize * TileSize
	// tileMask extracts the in-tile coordinate.
	tileMask = TileSize - 1
)

// TileCoord identifies one tile: the elementwise floor division of its
// cells' axial coordinates by TileSize.
type TileCoord struct {
	TQ, TR int
}

// TileOf returns the tile containing p. Arithmetic shift right is floor
// division by a power of two for negative coordinates as well, so the
// tiling is seamless across the origin.
func TileOf(p Point) TileCoord {
	return TileCoord{TQ: p.Q >> TileShift, TR: p.R >> TileShift}
}

// Origin returns the minimal cell of the tile.
func (t TileCoord) Origin() Point {
	return Point{Q: t.TQ << TileShift, R: t.TR << TileShift}
}

// Window returns the tile's cell window.
func (t TileCoord) Window() Window {
	return Window{Min: t.Origin(), W: TileSize, H: TileSize}
}

// Key packs the tile coordinates into a single comparable 64-bit key
// (32 bits per signed coordinate), usable as a hash-table key.
func (t TileCoord) Key() uint64 {
	return uint64(uint32(t.TQ))<<32 | uint64(uint32(t.TR))
}

// TileIndex returns the row-major index of p within its tile:
// localR*TileSize + localQ, with local coordinates in [0, TileSize).
func TileIndex(p Point) int {
	return (p.R&tileMask)<<TileShift | (p.Q & tileMask)
}

// TileInterior2 reports whether p lies at depth ≥ 2 inside its tile, so
// every cell within lattice distance 2 of p (in particular the full
// (l, lp) gather ring for any direction) falls in the same tile.
func TileInterior2(p Point) bool {
	lq := p.Q & tileMask
	lr := p.R & tileMask
	return lq >= 2 && lq < TileSize-2 && lr >= 2 && lr < TileSize-2
}
