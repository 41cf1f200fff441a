package snapbin

import (
	"fmt"

	"sops/internal/lattice"
	"sops/internal/psys"
)

// Configuration plane codec. A configuration is carried as its occupied
// 64×64 tile set (the psys.TileStore tiling): per tile, the 4096 cell
// values — 0 for vacant, color+1 for a particle — packed at 2, 4 or 8 bits
// per cell and XOR-RLE compressed. Tile coordinates are delta-coded in a
// canonical (TR, TQ) order. The representation is sparse in occupied tiles,
// so stringy or even disconnected configurations cost bytes proportional to
// occupation, never to the bounding box.

// bitsFor returns the plane depth for k color classes: cell values span
// 0..k, so 2 bits cover k ≤ 3 (the paper's workloads), 4 bits k ≤ 15, and
// 8 bits the psys.MaxColors ceiling.
func bitsFor(numColors uint8) uint8 {
	switch {
	case numColors <= 3:
		return 2
	case numColors <= 15:
		return 4
	}
	return 8
}

// planeBytes is the packed byte length of one tile plane at bpc bits.
func planeBytes(bpc uint8) int { return lattice.TileArea * int(bpc) / 8 }

// Encoder holds the reusable scratch of the hot binary writers: the frame
// buffer, one packed tile plane, and the seal-envelope buffer. All grow to
// a high-water mark and are reused, so a steady-state producer (an
// auto-checkpointing run, a recorder flush loop) allocates nothing. Not
// safe for concurrent use; the zero value is ready.
type Encoder struct {
	buf    []byte                 // frame scratch, returned by Encode* methods
	body   []byte                 // frame-body scratch for count-prefixed kinds
	sealed []byte                 // seal envelope scratch
	plane  [lattice.TileArea]byte // one packed tile plane (max depth 8 bpc)
}

// appendConfig appends the configuration block for cfg: numColors byte,
// tile count, then delta-coded tiles each carrying an XOR-RLE packed
// plane. It walks the configuration's window tile by tile in canonical
// (TR, TQ) order, packing and emitting every non-empty tile, and allocates
// nothing.
func (e *Encoder) appendConfig(dst []byte, cfg *psys.Config) []byte {
	numColors := uint8(cfg.NumColors())
	bpc := bitsFor(numColors)
	dst = append(dst, numColors)
	win := cfg.Window()
	if win.Empty() || cfg.N() == 0 {
		return AppendUvarint(dst, 0)
	}
	loT := lattice.TileOf(win.Min)
	hiT := lattice.TileOf(win.Max())

	// First pass: count non-empty tiles so the tile count can prefix the
	// records. Second pass: emit. Both passes share scanTile; the double
	// scan is cheaper than buffering all records and costs no allocation.
	count := 0
	for tr := loT.TR; tr <= hiT.TR; tr++ {
		for tq := loT.TQ; tq <= hiT.TQ; tq++ {
			if e.scanTile(cfg, lattice.TileCoord{TQ: tq, TR: tr}, bpc) > 0 {
				count++
			}
		}
	}
	dst = AppendUvarint(dst, uint64(count))
	prev := lattice.TileCoord{}
	for tr := loT.TR; tr <= hiT.TR; tr++ {
		for tq := loT.TQ; tq <= hiT.TQ; tq++ {
			tc := lattice.TileCoord{TQ: tq, TR: tr}
			if e.scanTile(cfg, tc, bpc) == 0 {
				continue
			}
			dst = AppendVarint(dst, int64(tc.TQ-prev.TQ))
			dst = AppendVarint(dst, int64(tc.TR-prev.TR))
			dst = appendXorRLE(dst, e.plane[:planeBytes(bpc)])
			prev = tc
		}
	}
	return dst
}

// scanTile packs tile tc of cfg's dense store into e.plane at bpc bits per
// cell and returns the number of particles found. It reads the store
// through the zero-copy RowCells view: the stored cell bytes (0 vacant,
// color+1 occupied) are exactly the plane values, so packing is a shift
// and an or per occupied cell.
func (e *Encoder) scanTile(cfg *psys.Config, tc lattice.TileCoord, bpc uint8) int {
	pb := planeBytes(bpc)
	for i := range e.plane[:pb] {
		e.plane[i] = 0
	}
	tw := tc.Window()
	loQ, hiQ := tw.Min.Q, tw.Max().Q
	found := 0
	for r := tw.Min.R; r <= tw.Max().R; r++ {
		row := cfg.RowCells(r, loQ, hiQ)
		if len(row) == 0 {
			continue
		}
		// The clip can trim the leading edge; recover the in-tile index of
		// the first returned cell from the known clip rule.
		startQ := loQ
		if w := cfg.Window(); w.Min.Q > startQ {
			startQ = w.Min.Q
		}
		base := lattice.TileIndex(lattice.Point{Q: startQ, R: r})
		for k, v := range row {
			if v != 0 {
				setPlane(e.plane[:pb], base+k, bpc, v)
				found++
			}
		}
	}
	return found
}

// setPlane stores v at cell index i of a packed plane (little-endian
// within each byte).
func setPlane(plane []byte, i int, bpc uint8, v uint8) {
	bit := i * int(bpc)
	plane[bit/8] |= v << (bit % 8)
}

// getPlane loads cell index i of a packed plane.
func getPlane(plane []byte, i int, bpc uint8) uint8 {
	bit := i * int(bpc)
	return plane[bit/8] >> (bit % 8) & (1<<bpc - 1)
}

// readConfig decodes a configuration block written by appendConfig,
// validating every cell value against the declared color count and the
// reconstructed particle total against wantN; wantColors and bpc come from
// the frame header and must agree with the block.
func readConfig(r *Reader, bpc uint8, wantN int, wantColors uint8) (*psys.Config, error) {
	numColors, err := r.U8()
	if err != nil {
		return nil, err
	}
	if numColors > psys.MaxColors {
		return nil, fmt.Errorf("%w: %d color classes exceeds the maximum %d", ErrMalformed, numColors, psys.MaxColors)
	}
	if numColors != wantColors {
		return nil, fmt.Errorf("%w: block declares %d colors, header %d", ErrMalformed, numColors, wantColors)
	}
	if want := bitsFor(numColors); bpc != want && !(numColors == 0 && bpc == 2) {
		return nil, fmt.Errorf("%w: %d bits per cell for %d colors (want %d)", ErrMalformed, bpc, numColors, want)
	}
	// Each tile record is at least 4 bytes (two coordinate varints plus
	// one run/literal group).
	tiles, err := r.Count(4)
	if err != nil {
		return nil, err
	}
	// Every particle is a nonzero cell of a literal byte holding 8/bpc
	// cells, so the bytes left bound how many an untrusted frame can
	// hold: size the list once, without trusting the header's count.
	particles := make([]psys.Particle, 0, min(wantN, r.Remaining()*8/int(bpc)))
	pb := planeBytes(bpc)
	var plane [lattice.TileArea]byte
	prev := lattice.TileCoord{}
	for t := 0; t < tiles; t++ {
		dq, err := r.Varint()
		if err != nil {
			return nil, err
		}
		dr, err := r.Varint()
		if err != nil {
			return nil, err
		}
		tc := lattice.TileCoord{TQ: prev.TQ + int(dq), TR: prev.TR + int(dr)}
		if t > 0 && !tileLess(prev, tc) {
			return nil, fmt.Errorf("%w: tile %v out of canonical order", ErrMalformed, tc)
		}
		if err := readXorRLE(r, plane[:pb]); err != nil {
			return nil, err
		}
		origin := tc.Origin()
		placed := 0
		for i := 0; i < lattice.TileArea; i++ {
			v := getPlane(plane[:pb], i, bpc)
			if v == 0 {
				continue
			}
			if v > numColors {
				return nil, fmt.Errorf("%w: cell value %d exceeds %d color classes", ErrMalformed, v, numColors)
			}
			if len(particles) == wantN {
				return nil, fmt.Errorf("%w: more than the %d particles the header declares", ErrMalformed, wantN)
			}
			p := lattice.Point{Q: origin.Q + i&(lattice.TileSize-1), R: origin.R + i>>lattice.TileShift}
			particles = append(particles, psys.Particle{Pos: p, Color: psys.Color(v - 1)})
			placed++
		}
		if placed == 0 {
			return nil, fmt.Errorf("%w: empty tile record %v", ErrMalformed, tc)
		}
		prev = tc
	}
	if len(particles) != wantN {
		return nil, fmt.Errorf("%w: decoded %d particles, header declares %d", ErrMalformed, len(particles), wantN)
	}
	// Tiles arrive in strictly increasing order, so no two particles share
	// a cell; the one way NewFrom can fail is psys.ErrSpread.
	cfg, err := psys.NewFrom(particles)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	return cfg, nil
}

// tileLess is the canonical (TR, TQ) tile order.
func tileLess(a, b lattice.TileCoord) bool {
	if a.TR != b.TR {
		return a.TR < b.TR
	}
	return a.TQ < b.TQ
}
