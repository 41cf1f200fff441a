package psys

import (
	"math/bits"

	"sops/internal/lattice"
)

// This file implements the table-driven proposal kernel for the Markov
// chain's hot path. A chain step concerns exactly two cells — a particle
// location l and an adjacent target lp — and every quantity Algorithm 1
// needs (degrees, color degrees, Property 4/5 validity) is a function of
// the 8 distinct lattice cells ringing the (l, lp) edge:
//
//	N(l) \ {lp} has 5 cells, N(lp) \ {l} has 5 cells, and on the
//	triangular lattice they share the 2 common neighbors of l and lp,
//	so |N(l) ∪ N(lp)| \ {l, lp}| = 8.
//
// GatherPair reads those 8 cells from the dense store once: eight
// unrolled byte loads pack the raw cell bytes into one uint64, and the
// 8-bit occupancy mask is derived from the packed word without a branch
// (gatherCells, occMask). The movement conditions of Algorithm 1
// (Degree(l) ≠ 5, Property 4 or 5) collapse to a single probe of a
// 256-entry table built per direction at init time from the readable
// reference implementations Property4On and Property5On, and all degree
// quantities become popcounts of the packed masks against per-direction
// adjacency masks. An accepted move or swap changes e(σ) and a(σ) only
// by counts over the same ring, so CommitMove and CommitSwap commit from
// the gather the decision used: two cell writes plus the popcount
// exponents (ApplyMove and ApplySwap gather once and commit the same
// way). The reference methods (Degree, ColorDegree*, Property4,
// Property5, Remove, Place) remain the specification; differential tests
// and FuzzGatherKernel hold the kernel to them.

// pairRingSize is the number of distinct cells adjacent to either
// endpoint of a lattice edge, excluding the endpoints themselves.
const pairRingSize = 8

// pairTable is the static, direction-specific geometry of the ring:
// cell offsets relative to l, adjacency masks, and the movement-validity
// table indexed by the ring occupancy mask.
type pairTable struct {
	// pts[k] is ring cell k as an offset from l. Cells 0..4 are
	// N(l) \ {lp} in direction order; cells 5..7 are the remaining cells
	// of N(lp) \ {l} in direction order.
	pts [pairRingSize]lattice.Point
	// adjL and adjLp mark the ring cells adjacent to l resp. lp. The two
	// common neighbors of l and lp are in both masks.
	adjL, adjLp uint8
	// adjL64 and adjLp64 are the same masks expanded to the high bit of
	// each byte lane (bit 8k+7 for ring cell k), matching the lane layout
	// of PairGather.colorHi for direct 64-bit popcounts.
	adjL64, adjLp64 uint64
	// moveOK[m] reports, for ring occupancy mask m with lp vacant,
	// conditions (i) and (ii) of Algorithm 1: Degree(l) ≠ 5 and the pair
	// satisfies Property 4 or Property 5.
	moveOK [1 << pairRingSize]bool
}

var pairTables [lattice.NumDirections]pairTable

// maskOcc adapts a ring occupancy mask to the Occupancy interface so the
// init-time table build can query the reference Property4On/Property5On.
type maskOcc struct {
	t    *pairTable
	mask uint8
}

func (m maskOcc) Occupied(p lattice.Point) bool {
	for k, q := range m.t.pts {
		if q == p {
			return m.mask>>k&1 == 1
		}
	}
	return false
}

func init() {
	l := lattice.Point{}
	for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
		t := &pairTables[d]
		lp := l.Neighbor(d)
		n := 0
		for _, nb := range l.Neighbors() {
			if nb != lp {
				t.pts[n] = nb
				n++
			}
		}
		for _, nb := range lp.Neighbors() {
			if nb == l {
				continue
			}
			dup := false
			for k := 0; k < n; k++ {
				if t.pts[k] == nb {
					dup = true
					break
				}
			}
			if !dup {
				t.pts[n] = nb
				n++
			}
		}
		if n != pairRingSize {
			panic("psys: pair ring is not 8 cells")
		}
		for k, p := range t.pts {
			if p.Adjacent(l) {
				t.adjL |= 1 << k
				t.adjL64 |= 0x80 << (8 * k)
			}
			if p.Adjacent(lp) {
				t.adjLp |= 1 << k
				t.adjLp64 |= 0x80 << (8 * k)
			}
		}
		for m := 0; m < 1<<pairRingSize; m++ {
			occ := maskOcc{t: t, mask: uint8(m)}
			deg := bits.OnesCount8(uint8(m) & t.adjL)
			t.moveOK[m] = deg != 5 && (Property4On(occ, l, lp) || Property5On(occ, l, lp))
		}
	}
}

// PairGather is the packed joint neighborhood of an (l, lp) edge pair:
// the raw dense-store bytes of the 8 ring cells (byte lane k holds ring
// cell k: 0 vacant, color+1 occupied), the ring occupancy mask, and the
// raw bytes at l and lp themselves. It carries everything one proposal of
// Algorithm 1 needs, read from the store in a single gather.
//
// The l and lp bytes share one field so the struct has at most four: the
// compiler then keeps a returned gather in registers and stores it field
// by field, instead of through a stack temporary whose byte stores stall
// the wide copy that follows.
type PairGather struct {
	ring uint64
	occ  uint8
	ends uint16 // raw byte at l (low) and at lp (high)
	dir  lattice.Direction
}

// rebuildPairOffsets recomputes the dense-store index deltas of the ring
// cells (and of lp itself) for the current window width. Called whenever
// the window is re-homed, so GatherPair itself never mutates the Config
// and stays safe for concurrent readers.
func (c *Config) rebuildPairOffsets() {
	w := c.win.W
	for d := range pairTables {
		off := lattice.Direction(d).Offset()
		c.pairNb[d] = int32(off.R*w + off.Q)
		for k, p := range pairTables[d].pts {
			c.pairOff[d][k] = int32(p.R*w + p.Q)
		}
	}
}

// GatherPair reads the joint neighborhood of l and lp = l.Neighbor(dir)
// in one pass. With l at depth ≥ 1 in the storage window — every
// particle, by the border-ring invariant — it is GatherAt at l's index;
// otherwise l is a vacant cell on or outside the border ring, and it falls
// back to GatherPairFrom over the general per-point read path, producing
// the identical packed view.
func (c *Config) GatherPair(l lattice.Point, dir lattice.Direction) PairGather {
	if c.win.Interior(l) {
		return c.GatherAt(c.win.Index(l), dir)
	}
	return GatherPairFrom(c.colorAt, l, dir)
}

// GatherAt is GatherPair for the cell at window index i, which must lie at
// depth ≥ 1, as every particle's cell does: the 10 cells (ring, l, lp) are
// 10 flat loads from the padded plane at precomputed offsets from i, with
// no test and no point arithmetic. A ring cell off the window then lands
// on a vacant cell of the border ring (a column past either side wraps to
// the border column of the adjacent row) or on a pad byte, so the view is
// exact.
func (c *Config) GatherAt(i int, dir lattice.Direction) PairGather {
	return gatherCells(c.plane, i+c.win.W+1, &c.pairOff[dir], c.pairNb[dir], dir)
}

// SameAt reports whether the cell at window index i, which must lie at
// depth ≥ 1, and its neighbor in direction dir hold the same byte: for a
// particle at i, whether lp holds a particle of its colour. It is the two
// end loads of GatherAt, without the ring.
func (c *Config) SameAt(i int, dir lattice.Direction) bool {
	return c.cells[i] == c.cells[i+int(c.pairNb[dir])]
}

// gatherCells packs the pair neighborhood of the cell at index base of a
// row-major cell plane, given the ring's index offsets off and lp's
// offset nb: eight unrolled loads fill the ring lanes, the occupancy mask
// comes from the packed word, and two more loads take the ends. It is the
// one dense gather of both the Config window and the tile store's planes.
func gatherCells(cells []uint8, base int, off *[pairRingSize]int32, nb int32, dir lattice.Direction) PairGather {
	ring := uint64(cells[base+int(off[0])]) |
		uint64(cells[base+int(off[1])])<<8 |
		uint64(cells[base+int(off[2])])<<16 |
		uint64(cells[base+int(off[3])])<<24 |
		uint64(cells[base+int(off[4])])<<32 |
		uint64(cells[base+int(off[5])])<<40 |
		uint64(cells[base+int(off[6])])<<48 |
		uint64(cells[base+int(off[7])])<<56
	return PairGather{
		ring: ring,
		occ:  occMask(ring),
		ends: uint16(cells[base]) | uint16(cells[base+int(nb)])<<8,
		dir:  dir,
	}
}

// occMask returns the mask with bit k set iff byte lane k of ring is
// nonzero, without a branch. The SWAR test ((x & 0x7f…) + 0x7f…) | x sets
// the high bit of exactly the nonzero lanes (the addition cannot carry
// out of a lane); shifted down to bit 8k, one multiply by
// 0x0102040810204080 moves lane k's bit to bit 56 + k and nothing else
// into the top byte, and no two partial products share a bit, so no
// carry disturbs it.
func occMask(ring uint64) uint8 {
	const (
		low7 = 0x7f7f7f7f7f7f7f7f
		high = 0x8080808080808080
	)
	nz := (((ring & low7) + low7) | ring) & high
	return uint8((nz >> 7) * 0x0102040810204080 >> 56)
}

// GatherPairFrom packs the joint neighborhood of l and lp = l.Neighbor(dir)
// from any cell reader: at reports the color of an occupied cell, or false
// for a vacant one. It is Config.GatherPair's general path, and the amoebot
// runtime reads its locked arena region and its agent program's private
// port frame through it, so every executor hands the model the same
// packed view.
func GatherPairFrom(at func(lattice.Point) (Color, bool), l lattice.Point, dir lattice.Direction) PairGather {
	g := PairGather{dir: dir}
	for k, d := range pairTables[dir].pts {
		if col, ok := at(l.Add(d)); ok {
			g.ring |= uint64(col+1) << (8 * k)
			g.occ |= 1 << k
		}
	}
	if col, ok := at(l); ok {
		g.ends = uint16(col) + 1
	}
	if col, ok := at(l.Neighbor(dir)); ok {
		g.ends |= (uint16(col) + 1) << 8
	}
	return g
}

// PairCells returns the 10 distinct lattice cells one proposal in
// direction dir from l touches: l, lp = l.Neighbor(dir), and the 8-cell
// ring around the (l, lp) edge — the read set of GatherPair and a
// superset of the write set {l, lp}. The sharded executor locks exactly
// this region for boundary proposals.
func PairCells(l lattice.Point, dir lattice.Direction) [pairRingSize + 2]lattice.Point {
	var cells [pairRingSize + 2]lattice.Point
	t := &pairTables[dir]
	for k, d := range t.pts {
		cells[k] = l.Add(d)
	}
	cells[pairRingSize] = l
	cells[pairRingSize+1] = l.Neighbor(dir)
	return cells
}

// LColor returns the color of the particle at l, if any.
func (g *PairGather) LColor() (Color, bool) {
	cl := uint8(g.ends)
	return Color(cl - 1), cl != 0
}

// LpColor returns the color of the particle at lp, if any.
func (g *PairGather) LpColor() (Color, bool) {
	clp := uint8(g.ends >> 8)
	return Color(clp - 1), clp != 0
}

// colorHi returns a mask with the high bit of byte lane k set iff ring
// cell k holds a particle of color col: a SWAR zero-lane detection on the
// XOR against the broadcast cell value. The (x | high) − ones form keeps
// every lane ≥ 0x80 before the subtraction, so no borrow ever crosses a
// lane boundary and the detection is exact per lane (the plain x − ones
// variant miscounts a lane of value 1 sitting above a zero lane).
func (g *PairGather) colorHi(col Color) uint64 {
	const (
		ones = 0x0101010101010101
		high = 0x8080808080808080
	)
	x := g.ring ^ (uint64(col+1) * ones)
	return high &^ (x | ((x | high) - ones))
}

// MoveExponents returns the Metropolis exponents of a move proposal,
// dLambda = e′ − e and dGamma = e′_i − e_i, as popcount differences over
// the packed ring. Meaningful only when l is occupied and lp vacant.
// Both results are within ±5 by construction (each term counts at most
// the 5 ring cells on one side).
func (g *PairGather) MoveExponents() (dLambda, dGamma int) {
	t := &pairTables[g.dir]
	dLambda = bits.OnesCount8(g.occ&t.adjLp) - bits.OnesCount8(g.occ&t.adjL)
	ci := g.colorHi(Color(uint8(g.ends) - 1))
	dGamma = bits.OnesCount64(ci&t.adjLp64) - bits.OnesCount64(ci&t.adjL64)
	return dLambda, dGamma
}

// Dir returns the proposal direction the gather was taken along.
func (g *PairGather) Dir() lattice.Direction { return g.dir }

// Occ returns the 8-bit ring occupancy mask (bit k set iff ring cell k is
// occupied). Together with Dir it indexes any per-direction validity table
// built over ring occupancies.
func (g *PairGather) Occ() uint8 { return g.occ }

// DegreeCounts returns the number of occupied ring cells adjacent to l and
// to lp. The common neighbors of the edge are counted on both sides.
func (g *PairGather) DegreeCounts() (nl, nlp int) {
	t := &pairTables[g.dir]
	return bits.OnesCount8(g.occ & t.adjL), bits.OnesCount8(g.occ & t.adjLp)
}

// ColorCounts returns the number of ring cells holding color col adjacent
// to l and to lp. Each result is within [0, 5].
func (g *PairGather) ColorCounts(col Color) (nl, nlp int) {
	t := &pairTables[g.dir]
	hi := g.colorHi(col)
	return bits.OnesCount64(hi & t.adjL64), bits.OnesCount64(hi & t.adjLp64)
}

// MoveOK probes the per-direction movement-validity table directly:
// whether ring occupancy mask occ (with lp vacant) satisfies conditions
// (i) and (ii) of Algorithm 1. Models that keep the paper's locality
// predicate delegate to it when building their own validity tables.
func MoveOK(dir lattice.Direction, occ uint8) bool {
	return pairTables[dir].moveOK[occ]
}

// SwapExponent returns the Metropolis exponent of a swap proposal — the
// change in same-color adjacencies when the particles at l and lp
// exchange positions. Meaningful only when both l and lp are occupied.
// The result is within ±10 (two ±5 popcount differences; exactly −2 for
// same-colored pairs, whose only changed adjacencies are their own edge
// counted once from each side).
func (g *PairGather) SwapExponent() int {
	cl, clp := uint8(g.ends), uint8(g.ends>>8)
	if cl == clp {
		return -2
	}
	t := &pairTables[g.dir]
	ci := g.colorHi(Color(cl - 1))
	cj := g.colorHi(Color(clp - 1))
	return bits.OnesCount64(ci&t.adjLp64) - bits.OnesCount64(ci&t.adjL64) +
		bits.OnesCount64(cj&t.adjL64) - bits.OnesCount64(cj&t.adjLp64)
}
