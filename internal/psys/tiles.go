package psys

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sops/internal/lattice"
)

// TileStore is the sharded occupancy store: dense 64×64 byte planes
// (tiles) behind a sparse, lock-free-read tile directory. It holds the
// same state as Config — occupancy, colors, and the incrementally
// maintained n/e/a statistics — but its memory is O(occupied tiles)
// instead of O(bounding-box area), so a stringy configuration of 10⁵
// particles whose bounding box is 10⁵×10⁵ cells costs ~6 MiB of tiles
// rather than the 10 GiB a single dense window would need.
//
// Concurrency contract. Reads (At, Occupied, GatherPair) are safe at any
// time. Place and Remove are construction-time operations and must not run
// concurrently with anything. ApplyMove, ApplySwap, CommitMove and
// CommitSwap may run concurrently from multiple workers provided the
// caller serializes operations whose joint (l, lp) neighborhoods overlap —
// the sharded executor in internal/core does so with band ownership plus
// striped region locks — in which case every cell access is either
// exclusive or ordered by the caller's synchronization, and the statistic
// updates are atomic. Under that discipline the store behaves exactly like
// Config under the equivalent serial operation sequence, which the
// lockstep differential tests and the serializability audit enforce.
//
// The directory is an open-addressing hash table of tile pointers,
// published through an atomic pointer (RCU): readers never lock; tile
// creation and table growth serialize on a mutex and publish by atomic
// store. A reader holding the previous table can only miss a tile whose
// cells were all vacant in its causal past, which reads identically to
// the tile being absent.
type TileStore struct {
	tab    atomic.Pointer[tileTable]
	growMu sync.Mutex
	tiles  int // occupied directory entries, guarded by growMu

	n          int // particles; moves and swaps preserve it
	colorCount [MaxColors]int
	colors     int

	edges atomic.Int64 // e(σ): adjacent occupied pairs
	hom   atomic.Int64 // a(σ): adjacent same-colored pairs
}

// tilePlane is one dense 64×64 cell plane. Cell encoding matches the
// dense store: 0 vacant, color+1 occupied.
type tilePlane struct {
	key   uint64 // tc.Key(), the directory hash key
	tc    lattice.TileCoord
	cells [lattice.TileArea]uint8
}

// tileTable is an immutable-size open-addressing directory. Slots are
// atomic so a tile inserted into a live table becomes visible to
// lock-free readers; the slice itself is never written after publication
// except through those slots.
type tileTable struct {
	mask  uint64
	slots []atomic.Pointer[tilePlane]
}

func hashTileKey(key uint64) uint64 {
	h := key * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

func (t *tileTable) get(key uint64) *tilePlane {
	for i := hashTileKey(key) & t.mask; ; i = (i + 1) & t.mask {
		e := t.slots[i].Load()
		if e == nil {
			return nil
		}
		if e.key == key {
			return e
		}
	}
}

// put stores tp in the first free probe slot. Callers hold growMu and
// have verified the key is absent and the table has room.
func (t *tileTable) put(tp *tilePlane) {
	for i := hashTileKey(tp.key) & t.mask; ; i = (i + 1) & t.mask {
		if t.slots[i].Load() == nil {
			t.slots[i].Store(tp)
			return
		}
	}
}

func newTileTable(size int) *tileTable {
	return &tileTable{mask: uint64(size - 1), slots: make([]atomic.Pointer[tilePlane], size)}
}

// tileTableMinSize keeps the directory allocation trivial for small
// configurations while avoiding immediate rehashes.
const tileTableMinSize = 64

// NewTileStore returns an empty store.
func NewTileStore() *TileStore {
	s := &TileStore{}
	s.tab.Store(newTileTable(tileTableMinSize))
	return s
}

// NewTileStoreFrom builds a store holding the same configuration as cfg.
func NewTileStoreFrom(cfg *Config) *TileStore {
	s := NewTileStore()
	cfg.ForEach(func(p lattice.Point, col Color) {
		if err := s.Place(p, col); err != nil {
			panic("psys: NewTileStoreFrom: " + err.Error())
		}
	})
	return s
}

// ensureTile returns the plane for tc, creating it (and growing the
// directory at load factor ½) if absent. Safe for concurrent use; the
// fast path is one atomic load and a table probe.
func (s *TileStore) ensureTile(tc lattice.TileCoord) *tilePlane {
	key := tc.Key()
	if tp := s.tab.Load().get(key); tp != nil {
		return tp
	}
	s.growMu.Lock()
	defer s.growMu.Unlock()
	tab := s.tab.Load()
	if tp := tab.get(key); tp != nil {
		return tp
	}
	tp := &tilePlane{key: key, tc: tc}
	if uint64(2*(s.tiles+1)) > tab.mask+1 {
		grown := newTileTable(2 * len(tab.slots))
		for i := range tab.slots {
			if e := tab.slots[i].Load(); e != nil {
				grown.put(e)
			}
		}
		grown.put(tp)
		s.tab.Store(grown)
	} else {
		tab.put(tp)
	}
	s.tiles++
	return tp
}

// plane returns the tile plane containing p, or nil if the tile has
// never held a particle.
func (s *TileStore) plane(p lattice.Point) *tilePlane {
	return s.tab.Load().get(lattice.TileOf(p).Key())
}

func (s *TileStore) cellAt(p lattice.Point) uint8 {
	tp := s.plane(p)
	if tp == nil {
		return 0
	}
	return tp.cells[lattice.TileIndex(p)]
}

// At returns the color of the particle at p, if any.
func (s *TileStore) At(p lattice.Point) (Color, bool) {
	v := s.cellAt(p)
	return Color(v - 1), v != 0
}

// Occupied reports whether p is occupied, implementing Occupancy.
func (s *TileStore) Occupied(p lattice.Point) bool { return s.cellAt(p) != 0 }

// N returns the particle count.
func (s *TileStore) N() int { return s.n }

// Edges returns e(σ), the number of adjacent occupied pairs.
func (s *TileStore) Edges() int { return int(s.edges.Load()) }

// HomEdges returns a(σ), the number of adjacent same-colored pairs.
func (s *TileStore) HomEdges() int { return int(s.hom.Load()) }

// HetEdges returns h(σ) = e − a.
func (s *TileStore) HetEdges() int { return s.Edges() - s.HomEdges() }

// Perimeter returns p(σ) via the identity e = 3n − p − 3, which holds
// for connected hole-free configurations, matching Config.Perimeter.
func (s *TileStore) Perimeter() int {
	if s.n == 0 {
		return 0
	}
	return 3*s.n - 3 - s.Edges()
}

// ColorCount returns the number of particles of color col.
func (s *TileStore) ColorCount(col Color) int {
	if col >= MaxColors {
		return 0
	}
	return s.colorCount[col]
}

// NumColors returns one more than the largest color ever placed.
func (s *TileStore) NumColors() int { return s.colors }

// TileCount returns the number of tiles in the directory (tiles are
// created on first occupancy and retained thereafter).
func (s *TileStore) TileCount() int {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	return s.tiles
}

// Place adds a particle of color col at p, updating edge statistics.
// Construction-time only: not safe concurrently with any other method.
func (s *TileStore) Place(p lattice.Point, col Color) error {
	if col >= MaxColors {
		return ErrColorRange
	}
	tp := s.ensureTile(lattice.TileOf(p))
	idx := lattice.TileIndex(p)
	if tp.cells[idx] != 0 {
		return ErrOccupied
	}
	var de, da int64
	for _, nb := range p.Neighbors() {
		if v := s.cellAt(nb); v != 0 {
			de++
			if Color(v-1) == col {
				da++
			}
		}
	}
	tp.cells[idx] = uint8(col) + 1
	s.n++
	s.colorCount[col]++
	if int(col)+1 > s.colors {
		s.colors = int(col) + 1
	}
	s.edges.Add(de)
	s.hom.Add(da)
	return nil
}

// Remove deletes the particle at p, updating edge statistics.
// Construction-time only: not safe concurrently with any other method.
func (s *TileStore) Remove(p lattice.Point) error {
	tp := s.plane(p)
	idx := lattice.TileIndex(p)
	if tp == nil || tp.cells[idx] == 0 {
		return ErrVacant
	}
	col := Color(tp.cells[idx] - 1)
	tp.cells[idx] = 0
	var de, da int64
	for _, nb := range p.Neighbors() {
		if v := s.cellAt(nb); v != 0 {
			de++
			if Color(v-1) == col {
				da++
			}
		}
	}
	s.n--
	s.colorCount[col]--
	s.edges.Add(-de)
	s.hom.Add(-da)
	return nil
}

// ApplyMove moves the particle at l to the adjacent unoccupied node lp,
// keeping its color and updating edge statistics with two atomic adds.
// It gathers the pair once and commits like CommitMove. Safe for
// concurrent use under the store's concurrency contract.
func (s *TileStore) ApplyMove(l, lp lattice.Point) error {
	dir, ok := l.DirectionTo(lp)
	if !ok {
		return ErrNotAdjacent
	}
	g := s.GatherPair(l, dir)
	if _, ok := g.LColor(); !ok {
		return fmt.Errorf("move from %v: %w", l, ErrVacant)
	}
	if _, ok := g.LpColor(); ok {
		return fmt.Errorf("move to %v: %w", lp, ErrOccupied)
	}
	s.CommitMove(l, &g)
	return nil
}

// CommitMove commits a move of the particle at l along g.Dir(), where
// g = GatherPair(l, g.Dir()) shows l occupied and lp vacant and the
// pair's neighborhood has not changed since — the gather a worker decided
// the move from. The changed edges are MoveExponents, the counts
// Remove(l) then Place(lp) would make. Safe for concurrent use under the
// store's concurrency contract.
func (s *TileStore) CommitMove(l lattice.Point, g *PairGather) {
	lp := l.Neighbor(g.dir)
	s.plane(l).cells[lattice.TileIndex(l)] = 0
	s.ensureTile(lattice.TileOf(lp)).cells[lattice.TileIndex(lp)] = uint8(g.ends)
	de, da := g.MoveExponents()
	if de != 0 {
		s.edges.Add(int64(de))
	}
	if da != 0 {
		s.hom.Add(int64(da))
	}
}

// ApplySwap exchanges the particles at adjacent occupied nodes l and lp.
// Same-colored swaps are a no-op, as in Config.ApplySwap. It gathers the
// pair once and commits like CommitSwap. Safe for concurrent use under
// the store's concurrency contract.
func (s *TileStore) ApplySwap(l, lp lattice.Point) error {
	dir, ok := l.DirectionTo(lp)
	if !ok {
		return ErrNotAdjacent
	}
	g := s.GatherPair(l, dir)
	cl, clp := uint8(g.ends), uint8(g.ends>>8)
	if cl == 0 {
		return fmt.Errorf("swap at %v: %w", l, ErrVacant)
	}
	if clp == 0 {
		return fmt.Errorf("swap at %v: %w", lp, ErrVacant)
	}
	if cl != clp {
		s.CommitSwap(l, &g)
	}
	return nil
}

// CommitSwap commits a swap of the particles at l and its neighbor along
// g.Dir(), where g = GatherPair(l, g.Dir()) shows two particles of
// different colors and the pair's neighborhood has not changed since.
// Occupancy is unchanged, so e(σ) is too; a(σ) moves by SwapExponent.
// Safe for concurrent use under the store's concurrency contract.
func (s *TileStore) CommitSwap(l lattice.Point, g *PairGather) {
	lp := l.Neighbor(g.dir)
	s.plane(l).cells[lattice.TileIndex(l)] = uint8(g.ends >> 8)
	s.plane(lp).cells[lattice.TileIndex(lp)] = uint8(g.ends)
	if da := g.SwapExponent(); da != 0 {
		s.hom.Add(int64(da))
	}
}

// forEachTile invokes f with every directory tile, in directory (hash)
// order. Callers wanting canonical order go through Points.
func (s *TileStore) forEachTile(f func(tp *tilePlane)) {
	tab := s.tab.Load()
	for i := range tab.slots {
		if e := tab.slots[i].Load(); e != nil {
			f(e)
		}
	}
}

// ForEach invokes f with every particle, in unspecified (directory)
// order — unlike Config.ForEach, which is canonical. Iteration without
// the sort keeps scans allocation-free for consumers that don't need
// ordering, like the metrics flood fill.
func (s *TileStore) ForEach(f func(p lattice.Point, col Color)) {
	s.forEachTile(func(tp *tilePlane) {
		base := tp.tc.Origin()
		for i, v := range tp.cells {
			if v != 0 {
				f(lattice.Point{
					Q: base.Q + i%lattice.TileSize,
					R: base.R + i/lattice.TileSize,
				}, Color(v-1))
			}
		}
	})
}

// Points returns the occupied nodes in canonical (Q, R) order.
func (s *TileStore) Points() []lattice.Point {
	pts := make([]lattice.Point, 0, s.n)
	s.forEachTile(func(tp *tilePlane) {
		base := tp.tc.Origin()
		for i, v := range tp.cells {
			if v != 0 {
				pts = append(pts, lattice.Point{
					Q: base.Q + i%lattice.TileSize,
					R: base.R + i/lattice.TileSize,
				})
			}
		}
	})
	lattice.SortPoints(pts)
	return pts
}

// Particles returns all particles in canonical point order.
func (s *TileStore) Particles() []Particle {
	pts := s.Points()
	out := make([]Particle, len(pts))
	for i, p := range pts {
		col, _ := s.At(p)
		out[i] = Particle{Pos: p, Color: col}
	}
	return out
}

// ToConfig materializes the store as a dense Config. The Config's window
// covers the configuration's bounding box, so this is only sensible for
// compact configurations; stringy ones should stay tiled.
func (s *TileStore) ToConfig() (*Config, error) {
	return NewFrom(s.Particles())
}

// Connected reports whether the occupied nodes induce a connected
// subgraph, via a flood fill over per-tile visited planes (O(n), never
// O(bounding box)).
func (s *TileStore) Connected() bool {
	if s.n <= 1 {
		return true
	}
	var start lattice.Point
	found := false
	s.forEachTile(func(tp *tilePlane) {
		if found {
			return
		}
		for i, v := range tp.cells {
			if v != 0 {
				base := tp.tc.Origin()
				start = lattice.Point{Q: base.Q + i%lattice.TileSize, R: base.R + i/lattice.TileSize}
				found = true
				return
			}
		}
	})
	if !found {
		return true
	}
	visited := make(map[lattice.TileCoord]*[lattice.TileArea]bool)
	mark := func(p lattice.Point) bool {
		tc := lattice.TileOf(p)
		vp := visited[tc]
		if vp == nil {
			vp = new([lattice.TileArea]bool)
			visited[tc] = vp
		}
		i := lattice.TileIndex(p)
		if vp[i] {
			return false
		}
		vp[i] = true
		return true
	}
	stack := []lattice.Point{start}
	mark(start)
	seen := 1
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range p.Neighbors() {
			if s.cellAt(nb) != 0 && mark(nb) {
				seen++
				stack = append(stack, nb)
			}
		}
	}
	return seen == s.n
}

// GatherPair reads the joint neighborhood of l and lp = l.Neighbor(dir)
// in one pass, producing the identical packed view as Config.GatherPair
// on the same configuration. When l sits at depth ≥ 2 inside its tile —
// 88% of cells — the 10 reads are flat loads from one plane at
// precomputed offsets; boundary cells fall back to per-cell tile
// lookups.
func (s *TileStore) GatherPair(l lattice.Point, dir lattice.Direction) PairGather {
	g := PairGather{dir: dir}
	if lattice.TileInterior2(l) {
		if tp := s.plane(l); tp != nil {
			return gatherCells(tp.cells[:], lattice.TileIndex(l), &tilePairOff[dir], tileNbOff[dir], dir)
		}
		return g // absent tile: all ten cells vacant
	}
	t := &pairTables[dir]
	var ring uint64
	var occ uint8
	for k, d := range t.pts {
		if v := s.cellAt(l.Add(d)); v != 0 {
			ring |= uint64(v) << (8 * k)
			occ |= 1 << k
		}
	}
	g.ring, g.occ = ring, occ
	g.ends = uint16(s.cellAt(l)) | uint16(s.cellAt(l.Neighbor(dir)))<<8
	return g
}

// tilePairOff and tileNbOff are the in-tile row-major index deltas of
// the ring cells and of lp, fixed at compile time by the tile width
// (unlike Config's window-relative offsets, which move on re-home).
var (
	tilePairOff [lattice.NumDirections][pairRingSize]int32
	tileNbOff   [lattice.NumDirections]int32
)

func init() {
	for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
		off := d.Offset()
		tileNbOff[d] = int32(off.R*lattice.TileSize + off.Q)
		for k, p := range pairTables[d].pts {
			tilePairOff[d][k] = int32(p.R*lattice.TileSize + p.Q)
		}
	}
}

// Audit recounts every cached statistic from raw tile storage and
// verifies directory integrity, returning an *InvariantError naming the
// first mismatch. It is the TileStore analog of Config.CheckCounts,
// used by the differential and fuzz harnesses after every mutation
// batch. Not safe concurrently with writers.
func (s *TileStore) Audit() error {
	n := 0
	var colorCount [MaxColors]int
	edges, hom := 0, 0
	keys := make(map[uint64]bool)
	var bad error
	s.forEachTile(func(tp *tilePlane) {
		if bad != nil {
			return
		}
		if tp.key != tp.tc.Key() {
			bad = &InvariantError{Property: "tile-directory", Detail: fmt.Sprintf("tile %v stored under key %#x", tp.tc, tp.key)}
			return
		}
		if keys[tp.key] {
			bad = &InvariantError{Property: "tile-directory", Detail: fmt.Sprintf("tile %v appears twice", tp.tc)}
			return
		}
		keys[tp.key] = true
		base := tp.tc.Origin()
		for i, v := range tp.cells {
			if v == 0 {
				continue
			}
			if int(v) > MaxColors {
				bad = &InvariantError{Property: "tile-cells", Detail: fmt.Sprintf("cell %d of tile %v holds invalid byte %d", i, tp.tc, v)}
				return
			}
			n++
			colorCount[v-1]++
			p := lattice.Point{Q: base.Q + i%lattice.TileSize, R: base.R + i/lattice.TileSize}
			// Count each adjacency once via three of the six directions.
			for _, d := range [3]lattice.Direction{0, 1, 2} {
				if w := s.cellAt(p.Neighbor(d)); w != 0 {
					edges++
					if w == v {
						hom++
					}
				}
			}
		}
	})
	if bad != nil {
		return bad
	}
	if len(keys) != s.TileCount() {
		return &InvariantError{Property: "tile-directory", Detail: fmt.Sprintf("directory holds %d tiles, cached count %d", len(keys), s.TileCount())}
	}
	if n != s.n {
		return &InvariantError{Property: "counts", Detail: fmt.Sprintf("stored particles %d != cached n %d", n, s.n)}
	}
	if edges != s.Edges() {
		return &InvariantError{Property: "counts", Detail: fmt.Sprintf("stored edges %d != cached %d", edges, s.Edges())}
	}
	if hom != s.HomEdges() {
		return &InvariantError{Property: "counts", Detail: fmt.Sprintf("stored hom edges %d != cached %d", hom, s.HomEdges())}
	}
	for c := 0; c < MaxColors; c++ {
		if colorCount[c] != s.colorCount[c] {
			return &InvariantError{Property: "counts", Detail: fmt.Sprintf("color %d count %d != cached %d", c, colorCount[c], s.colorCount[c])}
		}
	}
	return nil
}
