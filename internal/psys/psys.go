// Package psys implements heterogeneous particle-system configurations on
// the triangular lattice: occupancy with immutable particle colors,
// incrementally maintained edge statistics, perimeter, connectivity and hole
// detection, and the locally checkable movement properties (Properties 4
// and 5 of the paper) that guarantee moves never disconnect the system or
// create holes.
//
// A Config corresponds to the paper's notion of a configuration σ: the set
// of occupied vertices of G_Δ together with the colors of the occupying
// particles. The package maintains, under every move and swap:
//
//   - e(σ): the number of lattice edges with both endpoints occupied,
//   - a(σ): the number of homogeneous edges (endpoints of equal color),
//   - h(σ) = e(σ) − a(σ): the number of heterogeneous edges,
//
// and exposes the perimeter p(σ) through the identity e = 3n − p − 3, valid
// for connected hole-free configurations, as well as through an independent
// boundary-walk computation.
//
// # Storage
//
// Occupancy lives in a dense flat byte array indexed by a lattice.Window
// over the configuration's bounding box (with slack for drift), so the
// neighborhood queries on the Markov chain's hot path are plain array loads
// instead of hash lookups. The window is the only store. It grows
// automatically as the configuration expands, keeping a vacant border ring
// so that every particle sits in the window's interior, and its area is
// capped by a budget of (n + 2·growMargin(n))² cells for n particles. A
// connected configuration spans at most n cells along each axis, so every
// connected configuration — the chain's entire state space — fits the
// budget. A placement that would need a larger window (possible only for
// point sets spread far apart, e.g. two particles 2³⁰ cells apart) is
// refused with ErrSpread and leaves the Config unchanged.
//
// Place grows the window one particle at a time and checks the budget for
// the count after the placement, so any connected growth order (each
// particle adjacent to one already placed) succeeds. To build from a list
// in any other order — a decoded file, a snapshot of another store — use
// NewFrom, which checks the budget once for the whole list.
//
// The window's cells sit in the middle of a plane with W + 1 zero pad
// bytes before and after them, for window width W. The chain's proposal
// reads the 8-cell ring around a particle l and a neighbor at fixed index
// offsets from l (GatherAt). Every particle is interior, at depth ≥ 1, and
// from there a ring cell lies within two rows and two columns of l: a
// column off either side wraps to the vacant border column of the
// adjacent row, and a row off either end reaches at most W − 1 cells past
// that end of the window. The pad is one row and one cell, W + 1 bytes,
// which also covers the six neighbors of any window cell (at most W cells
// past either end). So the fixed-offset read is exact for every particle,
// with no depth test and no per-point fallback, and it costs 2(W + 1)
// bytes per window.
package psys

import (
	"errors"
	"fmt"
	"math"

	"sops/internal/lattice"
)

// Color identifies a particle's immutable color class c_i. Colors are dense
// small integers 0, 1, …, k−1; the paper's proofs cover k = 2 and its
// simulations (and this library) allow any constant k.
type Color uint8

// MaxColors bounds the number of distinct color classes; the paper assumes
// k ≪ n is a constant.
const MaxColors = 16

// Particle is an occupied location together with its color.
type Particle struct {
	Pos   lattice.Point
	Color Color
}

// Config is a heterogeneous particle-system configuration. It is not safe
// for concurrent mutation; the amoebot runtime provides synchronization.
type Config struct {
	// win and cells are the configuration's one store: cells[win.Index(p)]
	// is 0 for a vacant vertex and col+1 for a particle of color col.
	// Invariants: every particle lies in win.Interior (the border ring is
	// vacant), and the window is re-homed only by grow or NewFrom, each
	// within the area budget for the particle count it grows for.
	//
	// cells is the middle of plane, which adds win.W + 1 zero bytes before
	// and after it (see the package doc's Storage section): the fixed-offset
	// gather reads plane[win.W+1+i+off] for a cell at window index i, and
	// never writes the pad.
	win   lattice.Window
	cells []uint8
	plane []uint8

	n          int
	edges      int
	hom        int
	colorCount [MaxColors]int

	// pairOff and pairNb cache, per direction, the dense-store index
	// deltas of the pair-neighborhood ring cells and of the neighbor cell
	// itself, for GatherPair's single-gather fast path. They depend only
	// on the window width and are rebuilt whenever the store is re-homed,
	// so read paths never mutate the Config.
	pairOff [lattice.NumDirections][pairRingSize]int32
	pairNb  [lattice.NumDirections]int32
}

var (
	// ErrOccupied is returned when placing a particle on an occupied node.
	ErrOccupied = errors.New("psys: node already occupied")
	// ErrVacant is returned when an operation expects an occupied node.
	ErrVacant = errors.New("psys: node not occupied")
	// ErrNotAdjacent is returned when two nodes are not lattice-adjacent.
	ErrNotAdjacent = errors.New("psys: nodes are not adjacent")
	// ErrColorRange is returned for colors outside [0, MaxColors).
	ErrColorRange = errors.New("psys: color out of range")
	// ErrSpread is returned when particles lie too far apart for their
	// count: the window covering them would exceed the area budget, or
	// its corners would pass the range of int. Connected configurations
	// never cause it.
	ErrSpread = errors.New("psys: particles too far apart for the window budget")
)

// New returns an empty configuration.
func New() *Config {
	return &Config{}
}

// NewFrom builds a configuration from particles given in any order. It
// checks the area budget once for the whole list and sizes the window once,
// to the list's bounding box plus margin, before placing the particles, so
// the result does not depend on the list's order. It fails with ErrSpread
// if the particles lie too far apart for their count, with ErrOccupied if
// two share a location and with ErrColorRange for a color out of range. It
// does not require connectivity; call Connected to check.
func NewFrom(particles []Particle) (*Config, error) {
	c := New()
	if len(particles) == 0 {
		return c, nil
	}
	lo, hi := particles[0].Pos, particles[0].Pos
	for _, pt := range particles {
		lo, hi = stretch(lo, hi, pt.Pos)
	}
	n := len(particles)
	win, ok := coverWithin(lo, hi, growMargin(n), windowBudget(n))
	if !ok {
		return nil, fmt.Errorf("%d particles spanning %v..%v: %w", n, lo, hi, ErrSpread)
	}
	c.home(win)
	for _, pt := range particles {
		if err := c.Place(pt.Pos, pt.Color); err != nil {
			return nil, fmt.Errorf("particle at %v: %w", pt.Pos, err)
		}
	}
	return c, nil
}

// colorAt is the single read path of the store.
func (c *Config) colorAt(p lattice.Point) (Color, bool) {
	if c.win.Contains(p) {
		if v := c.cells[c.win.Index(p)]; v != 0 {
			return Color(v - 1), true
		}
	}
	return 0, false
}

// growMargin is the vacant slack added around the bounding box on every
// window growth: large enough that a configuration must drift a while to
// trigger the next O(area) re-home, small relative to the area budget.
func growMargin(n int) int {
	m := 8
	for s := 1; s*s <= n; s++ { // + isqrt(n)
		m = 8 + s
	}
	return m
}

// windowBudget caps the dense window's area (in cells, one byte each) for
// n particles. A connected configuration of n particles has per-axis span
// at most n (its graph diameter bounds every coordinate difference), so the
// budget (n + 2·margin)² admits every connected configuration. Only sparse
// point sets (far-apart disconnected particles) exceed it.
func windowBudget(n int) int {
	s := n + 2*growMargin(n)
	b := s * s
	if b < 1024 {
		b = 1024
	}
	return b
}

// spanWithin reports whether hi − lo + 1 + 2·margin ≤ limit without
// overflowing on pathological coordinate spreads.
func spanWithin(lo, hi, margin, limit int) bool {
	if hi >= 0 && lo < 0 {
		span := uint64(hi) + uint64(-(lo + 1)) + 1
		return span <= uint64(limit) && int(span)+2*margin <= limit
	}
	return hi-lo < limit && hi-lo+1+2*margin <= limit
}

// coverWithin returns the margin-inflated window over the box [lo, hi] if
// its area fits the budget and its corners stay within the range of int.
func coverWithin(lo, hi lattice.Point, margin, budget int) (lattice.Window, bool) {
	if !spanWithin(lo.Q, hi.Q, margin, budget) || !spanWithin(lo.R, hi.R, margin, budget) {
		return lattice.Window{}, false
	}
	if min(lo.Q, lo.R) < math.MinInt+margin || max(hi.Q, hi.R) > math.MaxInt-margin {
		return lattice.Window{}, false
	}
	w := lattice.WindowCovering(lo, hi, margin)
	if w.Area() > budget {
		return lattice.Window{}, false
	}
	return w, true
}

// stretch returns the box [lo, hi] widened to cover p.
func stretch(lo, hi, p lattice.Point) (lattice.Point, lattice.Point) {
	lo.Q, lo.R = min(lo.Q, p.Q), min(lo.R, p.R)
	hi.Q, hi.R = max(hi.Q, p.Q), max(hi.R, p.R)
	return lo, hi
}

// grow re-homes the dense store onto a window covering both the current
// window and p, with fresh margin, while that fits the area budget for the
// current count. Past it, it retries against the tight bounding box of the
// actual occupation plus p, checked against the budget for the count after
// p is placed — so a compact configuration that has merely drifted for a
// long time is compacted rather than refused, and a connected one always
// fits. It reports false (leaving the store untouched) only when even the
// tight cover is over budget.
func (c *Config) grow(p lattice.Point) bool {
	lo, hi := p, p
	if !c.win.Empty() {
		lo, hi = stretch(lo, hi, c.win.Min)
		lo, hi = stretch(lo, hi, c.win.Max())
	}
	margin := growMargin(c.n)
	nw, ok := coverWithin(lo, hi, margin, windowBudget(c.n))
	if !ok {
		lo, hi = p, p
		c.ForEach(func(q lattice.Point, _ Color) { lo, hi = stretch(lo, hi, q) })
		if nw, ok = coverWithin(lo, hi, margin, windowBudget(c.n+1)); !ok {
			return false
		}
	}
	ow, old := c.win, c.cells
	c.home(nw)
	// Copy the old window into the new layout, row by row, keeping only
	// rows and columns the new window still covers (a tight-cover retry
	// may drop vacant fringe).
	for r := 0; r < ow.H; r++ {
		rowR := ow.Min.R + r
		if rowR < nw.Min.R || rowR > nw.Max().R {
			continue
		}
		srcLo, srcHi := max(ow.Min.Q, nw.Min.Q), min(ow.Max().Q, nw.Max().Q)
		if srcHi < srcLo {
			continue
		}
		src := old[ow.Index(lattice.Point{Q: srcLo, R: rowR}):]
		copy(c.cells[nw.Index(lattice.Point{Q: srcLo, R: rowR}):], src[:srcHi-srcLo+1])
	}
	return true
}

// home points the store at a fresh all-vacant plane for window w: w's
// cells with w.W + 1 zero pad bytes on either side.
func (c *Config) home(w lattice.Window) {
	pad, area := w.W+1, w.Area()
	c.plane = make([]uint8, area+2*pad)
	c.win, c.cells = w, c.plane[pad:pad+area:pad+area]
	c.rebuildPairOffsets()
}

// Place adds a particle of color col at p, updating edge statistics. If p
// lies outside the window's interior the window grows; when the grown
// window would exceed the area budget for the count after the placement,
// Place returns ErrSpread and leaves the Config unchanged.
func (c *Config) Place(p lattice.Point, col Color) error {
	if col >= MaxColors {
		return ErrColorRange
	}
	if _, ok := c.colorAt(p); ok {
		return ErrOccupied
	}
	if !c.win.Interior(p) && !c.grow(p) {
		return ErrSpread
	}
	for _, nb := range p.Neighbors() {
		if nc, ok := c.colorAt(nb); ok {
			c.edges++
			if nc == col {
				c.hom++
			}
		}
	}
	c.cells[c.win.Index(p)] = uint8(col) + 1
	c.n++
	c.colorCount[col]++
	return nil
}

// Remove deletes the particle at p, updating edge statistics.
func (c *Config) Remove(p lattice.Point) error {
	col, ok := c.colorAt(p)
	if !ok {
		return ErrVacant
	}
	c.cells[c.win.Index(p)] = 0
	for _, nb := range p.Neighbors() {
		if nc, ok := c.colorAt(nb); ok {
			c.edges--
			if nc == col {
				c.hom--
			}
		}
	}
	c.n--
	c.colorCount[col]--
	return nil
}

// At returns the color of the particle at p, if any.
func (c *Config) At(p lattice.Point) (Color, bool) {
	return c.colorAt(p)
}

// Occupied reports whether p is occupied.
func (c *Config) Occupied(p lattice.Point) bool {
	_, ok := c.colorAt(p)
	return ok
}

// Window returns the dense store's current index window: a loose,
// never-shrinking cover of the configuration (plus drift slack). Consumers
// like the metrics meter use it to size flood-fill scratch without
// allocating per capture. The window is empty until the first placement.
func (c *Config) Window() lattice.Window { return c.win }

// Cells returns the whole store: cell i holds the vertex
// Window().PointAt(i), as 0 when vacant and color+1 when occupied. Every
// particle lies in the window's interior, so Window().NeighborOffsets()
// added to a particle's index address its six neighbors. It has RowCells'
// contract: the slice aliases the store, so callers must treat it as
// read-only and must not hold it across mutations.
func (c *Config) Cells() []byte { return c.cells }

// RowCells returns the dense-store cell bytes — 0 for a vacant vertex,
// color+1 for a particle — of the window row R = r, clipped to Q ∈
// [loQ, hiQ], or nil when the row or range falls outside the window. It is
// the zero-copy plane-extraction path of the binary snapshot encoder: the
// returned slice aliases the store, so callers must treat it as read-only
// and must not hold it across mutations.
func (c *Config) RowCells(r, loQ, hiQ int) []byte {
	if r < c.win.Min.R || r >= c.win.Min.R+c.win.H {
		return nil
	}
	if loQ < c.win.Min.Q {
		loQ = c.win.Min.Q
	}
	if qMax := c.win.Min.Q + c.win.W - 1; hiQ > qMax {
		hiQ = qMax
	}
	if hiQ < loQ {
		return nil
	}
	i := c.win.Index(lattice.Point{Q: loQ, R: r})
	return c.cells[i : i+hiQ-loQ+1]
}

// N returns the number of particles.
func (c *Config) N() int { return c.n }

// Edges returns e(σ), the number of edges of the configuration.
func (c *Config) Edges() int { return c.edges }

// HomEdges returns a(σ), the number of homogeneous edges.
func (c *Config) HomEdges() int { return c.hom }

// HetEdges returns h(σ), the number of heterogeneous edges.
func (c *Config) HetEdges() int { return c.edges - c.hom }

// ColorCount returns the number of particles of color col.
func (c *Config) ColorCount(col Color) int {
	if col >= MaxColors {
		return 0
	}
	return c.colorCount[col]
}

// NumColors returns one plus the largest color present (0 for empty).
func (c *Config) NumColors() int {
	for k := MaxColors - 1; k >= 0; k-- {
		if c.colorCount[k] > 0 {
			return k + 1
		}
	}
	return 0
}

// Perimeter returns p(σ) via the identity e = 3n − p − 3 from [6], which
// holds for connected hole-free configurations. For n = 0 it returns 0.
func (c *Config) Perimeter() int {
	if c.n == 0 {
		return 0
	}
	return 3*c.n - 3 - c.edges
}

// Degree returns |N(p)|, the number of occupied neighbors of p.
func (c *Config) Degree(p lattice.Point) int {
	d := 0
	for _, nb := range p.Neighbors() {
		if _, ok := c.colorAt(nb); ok {
			d++
		}
	}
	return d
}

// DegreeExcluding returns |N(p) \ {ex}|.
func (c *Config) DegreeExcluding(p, ex lattice.Point) int {
	d := 0
	for _, nb := range p.Neighbors() {
		if nb == ex {
			continue
		}
		if _, ok := c.colorAt(nb); ok {
			d++
		}
	}
	return d
}

// ColorDegree returns |N_col(p)|, the number of occupied neighbors of p with
// color col.
func (c *Config) ColorDegree(p lattice.Point, col Color) int {
	d := 0
	for _, nb := range p.Neighbors() {
		if nc, ok := c.colorAt(nb); ok && nc == col {
			d++
		}
	}
	return d
}

// ColorDegreeExcluding returns |N_col(p) \ {ex}|.
func (c *Config) ColorDegreeExcluding(p, ex lattice.Point, col Color) int {
	d := 0
	for _, nb := range p.Neighbors() {
		if nb == ex {
			continue
		}
		if nc, ok := c.colorAt(nb); ok && nc == col {
			d++
		}
	}
	return d
}

// ForEach invokes f for every particle in canonical point order. It
// allocates nothing, making it the preferred bulk-read path for meters and
// serializers.
func (c *Config) ForEach(f func(p lattice.Point, col Color)) {
	// Column traversal of the row-major window visits vertices in
	// canonical lexicographic (Q, R) order.
	found := 0
	for q := 0; q < c.win.W && found < c.n; q++ {
		for i := q; i < len(c.cells); i += c.win.W {
			if v := c.cells[i]; v != 0 {
				f(c.win.PointAt(i), Color(v-1))
				found++
			}
		}
	}
}

// Particles returns all particles in canonical point order.
func (c *Config) Particles() []Particle {
	out := make([]Particle, 0, c.n)
	c.ForEach(func(p lattice.Point, col Color) { out = append(out, Particle{Pos: p, Color: col}) })
	return out
}

// AppendIndices appends the window index of every particle to dst in
// canonical point order, the order of ForEach and Points. The window's
// area must fit an int32.
func (c *Config) AppendIndices(dst []int32) []int32 {
	c.ForEach(func(p lattice.Point, _ Color) { dst = append(dst, int32(c.win.Index(p))) })
	return dst
}

// Points returns all occupied points in canonical point order.
func (c *Config) Points() []lattice.Point {
	out := make([]lattice.Point, 0, c.n)
	c.ForEach(func(p lattice.Point, _ Color) { out = append(out, p) })
	return out
}

// minPoint returns the canonical (lexicographically) first occupied point;
// ok is false for an empty configuration.
func (c *Config) minPoint() (lattice.Point, bool) {
	for q := 0; q < c.win.W && c.n > 0; q++ {
		for i := q; i < len(c.cells); i += c.win.W {
			if c.cells[i] != 0 {
				return c.win.PointAt(i), true
			}
		}
	}
	return lattice.Point{}, false
}

// Hash returns a 64-bit FNV-1a digest of the configuration up to lattice
// translation, folding in relative positions and colors in canonical point
// order. Two configurations have equal hashes iff they are (with negligible
// collision probability) the same configuration in the paper's sense, making
// the hash a compact trajectory fingerprint for golden tests and resume
// verification. The digest is defined purely over the public API (canonical
// point order and colors), so it is independent of the storage layout.
func (c *Config) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	base, ok := c.minPoint()
	if !ok {
		return h
	}
	c.ForEach(func(p lattice.Point, col Color) {
		d := p.Sub(base)
		mix(uint64(int64(d.Q)))
		mix(uint64(int64(d.R)))
		mix(uint64(col))
	})
	return h
}

// Clone returns a deep copy of the configuration.
func (c *Config) Clone() *Config {
	cp := *c
	if c.plane != nil {
		pad := c.win.W + 1
		cp.plane = append([]uint8(nil), c.plane...)
		cp.cells = cp.plane[pad : pad+len(c.cells) : pad+len(c.cells)]
	}
	return &cp
}

// Equal reports whether two configurations occupy exactly the same nodes
// with the same colors (no translation applied).
func (c *Config) Equal(o *Config) bool {
	if c.n != o.n {
		return false
	}
	equal := true
	c.ForEach(func(p lattice.Point, col Color) {
		if !equal {
			return
		}
		if oc, ok := o.colorAt(p); !ok || oc != col {
			equal = false
		}
	})
	return equal
}

// CanonicalKey returns a string identifying the configuration up to lattice
// translation, including particle colors. Two configurations are the same
// configuration in the paper's sense (equivalence class of arrangements) iff
// their canonical keys are equal.
func (c *Config) CanonicalKey() string {
	if c.n == 0 {
		return ""
	}
	base, _ := c.minPoint()
	b := make([]byte, 0, c.n*10)
	c.ForEach(func(p lattice.Point, col Color) {
		q := p.Sub(base)
		b = appendInt(b, q.Q)
		b = append(b, ',')
		b = appendInt(b, q.R)
		b = append(b, ':')
		b = append(b, byte('0'+col))
		b = append(b, ';')
	})
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}

// Connected reports whether the configuration is connected: between any two
// particles there is a path of configuration edges.
func (c *Config) Connected() bool {
	if c.n <= 1 {
		return true
	}
	// Flood fill over the window with constant index offsets; every
	// particle is interior, so the offsets never escape the cell array.
	start := -1
	for i, v := range c.cells {
		if v != 0 {
			start = i
			break
		}
	}
	offs := c.win.NeighborOffsets()
	visited := make([]bool, len(c.cells))
	stack := make([]int32, 1, c.n)
	visited[start] = true
	stack[0] = int32(start)
	count := 1
	for len(stack) > 0 {
		cur := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		for _, off := range offs {
			if nb := cur + off; c.cells[nb] != 0 && !visited[nb] {
				visited[nb] = true
				count++
				stack = append(stack, int32(nb))
			}
		}
	}
	return count == c.n
}

// HoleFree reports whether the configuration has no holes: no maximal finite
// connected component of unoccupied vertices. It floods the window's vacant
// cells from its border ring, which is vacant and part of the infinite
// exterior, the way Connected floods occupied cells: the ring is marked
// reached, the flood starts from the vacant cells just inside it and steps
// by constant index offsets through interior cells only, and any vacant
// cell it does not reach lies in a hole.
func (c *Config) HoleFree() bool {
	if c.n == 0 {
		return true
	}
	w, h := c.win.W, c.win.H
	offs := c.win.NeighborOffsets()
	reached := make([]bool, len(c.cells))
	stack := make([]int32, 0, 2*(w+h))
	visit := func(i int) {
		if c.cells[i] == 0 && !reached[i] {
			reached[i] = true
			stack = append(stack, int32(i))
		}
	}
	for q := 0; q < w; q++ {
		reached[q], reached[(h-1)*w+q] = true, true
	}
	for r := 0; r < h; r++ {
		reached[r*w], reached[r*w+w-1] = true, true
	}
	for q := 1; q < w-1; q++ {
		visit(w + q)
		visit((h-2)*w + q)
	}
	for r := 1; r < h-1; r++ {
		visit(r*w + 1)
		visit(r*w + w - 2)
	}
	for len(stack) > 0 {
		cur := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		for _, off := range offs {
			visit(cur + off)
		}
	}
	for i, v := range c.cells {
		if v == 0 && !reached[i] {
			return false
		}
	}
	return true
}
