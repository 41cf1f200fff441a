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
// instead of hash lookups. The window grows automatically as the
// configuration expands, keeping a vacant border ring so that every stored
// particle sits in the window's interior. Configurations whose bounding box
// would be disproportionately large relative to their particle count
// (possible only for disconnected point sets, e.g. two particles 2³¹ cells
// apart) spill the remote particles into a small overflow map; connected
// configurations — the chain's entire state space — are always fully dense.
package psys

import (
	"errors"
	"fmt"

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
	// win and cells are the dense store: cells[win.Index(p)] is 0 for a
	// vacant vertex and col+1 for a particle of color col. Invariants: every
	// dense particle lies in win.Interior (the border ring is vacant), and
	// the window never shrinks during a Config's lifetime.
	win   lattice.Window
	cells []uint8
	// overflow holds particles whose window growth was refused by the area
	// budget; nil until first needed. Overflow particles are never in
	// win.Interior.
	overflow map[uint64]Color

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
)

func key(p lattice.Point) uint64 {
	return uint64(uint32(p.Q))<<32 | uint64(uint32(p.R))
}

func unkey(k uint64) lattice.Point {
	return lattice.Point{Q: int(int32(k >> 32)), R: int(int32(k))}
}

// New returns an empty configuration.
func New() *Config {
	return &Config{}
}

// NewFrom builds a configuration from particles. It fails if any two
// particles share a location or a color is out of range. It does not require
// connectivity; call Connected to check.
func NewFrom(particles []Particle) (*Config, error) {
	c := New()
	for _, pt := range particles {
		if err := c.Place(pt.Pos, pt.Color); err != nil {
			return nil, fmt.Errorf("particle at %v: %w", pt.Pos, err)
		}
	}
	return c, nil
}

// colorAt is the single read path over both stores.
func (c *Config) colorAt(p lattice.Point) (Color, bool) {
	if c.win.Contains(p) {
		if v := c.cells[c.win.Index(p)]; v != 0 {
			return Color(v - 1), true
		}
	}
	if c.overflow != nil {
		col, ok := c.overflow[key(p)]
		return col, ok
	}
	return 0, false
}

// growMargin is the vacant slack added around the bounding box on every
// window growth: large enough that a configuration must drift a while to
// trigger the next O(area) reindex, small relative to the area budget.
func growMargin(n int) int {
	m := 8
	for s := 1; s*s <= n; s++ { // + isqrt(n)
		m = 8 + s
	}
	return m
}

// windowBudget caps the dense window's area (in cells, one byte each).
// A connected configuration of n particles has per-axis span at most n
// (its graph diameter bounds every coordinate difference), so the budget
// (n + 2·margin)² admits every connected configuration — the chain's entire
// state space stays dense unconditionally. Only adversarial sparse point
// sets (far-apart disconnected particles) exceed it and spill to the
// overflow map.
func (c *Config) windowBudget() int {
	s := c.n + 2*growMargin(c.n)
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
// its area fits the budget.
func coverWithin(lo, hi lattice.Point, margin, budget int) (lattice.Window, bool) {
	if !spanWithin(lo.Q, hi.Q, margin, budget) || !spanWithin(lo.R, hi.R, margin, budget) {
		return lattice.Window{}, false
	}
	w := lattice.WindowCovering(lo, hi, margin)
	if w.Area() > budget {
		return lattice.Window{}, false
	}
	return w, true
}

// grow re-homes the dense store onto a window covering both the current
// window and p, with fresh margin, and migrates any overflow particles that
// the new interior now covers. When extending the existing (never-shrunk)
// window would exceed the area budget, it retries against the tight bounding
// box of the actual occupation — so a compact configuration that has merely
// drifted for a long time is compacted rather than spilled. It reports false
// (leaving the store untouched) only when even the tight cover is over
// budget.
func (c *Config) grow(p lattice.Point) bool {
	lo, hi := p, p
	if !c.win.Empty() {
		mn, mx := c.win.Min, c.win.Max()
		if mn.Q < lo.Q {
			lo.Q = mn.Q
		}
		if mn.R < lo.R {
			lo.R = mn.R
		}
		if mx.Q > hi.Q {
			hi.Q = mx.Q
		}
		if mx.R > hi.R {
			hi.R = mx.R
		}
	}
	margin := growMargin(c.n)
	budget := c.windowBudget()
	nw, ok := coverWithin(lo, hi, margin, budget)
	if !ok {
		// Retry against the tight occupied bounding box plus p.
		lo, hi = p, p
		c.ForEach(func(q lattice.Point, _ Color) {
			if q.Q < lo.Q {
				lo.Q = q.Q
			}
			if q.R < lo.R {
				lo.R = q.R
			}
			if q.Q > hi.Q {
				hi.Q = q.Q
			}
			if q.R > hi.R {
				hi.R = q.R
			}
		})
		if nw, ok = coverWithin(lo, hi, margin, budget); !ok {
			return false
		}
	}
	cells := make([]uint8, nw.Area())
	if !c.win.Empty() {
		// Copy the old window into the new layout, row by row, keeping only
		// rows and columns the new window still covers (a tight-cover retry
		// may drop vacant fringe).
		for r := 0; r < c.win.H; r++ {
			rowR := c.win.Min.R + r
			if rowR < nw.Min.R || rowR > nw.Max().R {
				continue
			}
			srcLo, dstLo := c.win.Min.Q, nw.Min.Q
			if srcLo < dstLo {
				srcLo = dstLo
			}
			srcHi, dstHi := c.win.Max().Q, nw.Max().Q
			if srcHi > dstHi {
				srcHi = dstHi
			}
			if srcHi < srcLo {
				continue
			}
			src := c.cells[c.win.Index(lattice.Point{Q: srcLo, R: rowR}):]
			src = src[:srcHi-srcLo+1]
			dst := cells[nw.Index(lattice.Point{Q: srcLo, R: rowR}):]
			copy(dst, src)
		}
	}
	c.win, c.cells = nw, cells
	c.rebuildPairOffsets()
	// Migrate overflow particles that the grown interior now covers.
	if c.overflow != nil {
		for k, col := range c.overflow {
			if q := unkey(k); c.win.Interior(q) {
				c.cells[c.win.Index(q)] = uint8(col) + 1
				delete(c.overflow, k)
			}
		}
		if len(c.overflow) == 0 {
			c.overflow = nil
		}
	}
	return true
}

// Place adds a particle of color col at p, updating edge statistics.
func (c *Config) Place(p lattice.Point, col Color) error {
	if col >= MaxColors {
		return ErrColorRange
	}
	if _, ok := c.colorAt(p); ok {
		return ErrOccupied
	}
	for _, nb := range p.Neighbors() {
		if nc, ok := c.colorAt(nb); ok {
			c.edges++
			if nc == col {
				c.hom++
			}
		}
	}
	if c.win.Interior(p) || c.grow(p) {
		c.cells[c.win.Index(p)] = uint8(col) + 1
	} else {
		if c.overflow == nil {
			c.overflow = make(map[uint64]Color)
		}
		c.overflow[key(p)] = col
	}
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
	if c.win.Contains(p) && c.cells[c.win.Index(p)] != 0 {
		c.cells[c.win.Index(p)] = 0
	} else {
		delete(c.overflow, key(p))
		if len(c.overflow) == 0 {
			c.overflow = nil
		}
	}
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

// DenseOnly reports whether every particle lives in the dense window store
// (true for all connected configurations). When false, window-bounded scans
// miss the overflow particles and callers must fall back to point lists.
func (c *Config) DenseOnly() bool { return c.overflow == nil }

// Cells returns the whole dense store: cell i holds the vertex
// Window().PointAt(i), as 0 when vacant and color+1 when occupied. Every
// dense particle lies in the window's interior, so Window().
// NeighborOffsets() added to a particle's index address its six neighbors.
// It has RowCells' contract: the slice aliases the store, so callers must
// treat it as read-only and must not hold it across mutations, and
// overflow particles are not visible through it (check DenseOnly first).
func (c *Config) Cells() []byte { return c.cells }

// RowCells returns the dense-store cell bytes — 0 for a vacant vertex,
// color+1 for a particle — of the window row R = r, clipped to Q ∈
// [loQ, hiQ], or nil when the row or range falls outside the window. It is
// the zero-copy plane-extraction path of the binary snapshot encoder: the
// returned slice aliases the store, so callers must treat it as read-only
// and must not hold it across mutations. Overflow particles (possible only
// for disconnected configurations) are not visible through it; check
// DenseOnly first.
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
// allocates nothing when the configuration is fully dense (the common case),
// making it the preferred bulk-read path for meters and serializers.
func (c *Config) ForEach(f func(p lattice.Point, col Color)) {
	if c.overflow == nil {
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
		return
	}
	for _, pt := range c.Particles() {
		f(pt.Pos, pt.Color)
	}
}

// Particles returns all particles in canonical point order.
func (c *Config) Particles() []Particle {
	pts := c.Points()
	out := make([]Particle, len(pts))
	for i, p := range pts {
		col, _ := c.At(p)
		out[i] = Particle{Pos: p, Color: col}
	}
	return out
}

// Points returns all occupied points in canonical point order.
func (c *Config) Points() []lattice.Point {
	out := make([]lattice.Point, 0, c.n)
	found := 0
	for q := 0; q < c.win.W && found < c.n-len(c.overflow); q++ {
		for i := q; i < len(c.cells); i += c.win.W {
			if c.cells[i] != 0 {
				out = append(out, c.win.PointAt(i))
				found++
			}
		}
	}
	if c.overflow == nil {
		return out
	}
	// Merge the (already sorted) dense points with the sorted overflow.
	extra := make([]lattice.Point, 0, len(c.overflow))
	for k := range c.overflow {
		extra = append(extra, unkey(k))
	}
	lattice.SortPoints(extra)
	merged := make([]lattice.Point, 0, len(out)+len(extra))
	i, j := 0, 0
	for i < len(out) && j < len(extra) {
		if lattice.Less(out[i], extra[j]) {
			merged = append(merged, out[i])
			i++
		} else {
			merged = append(merged, extra[j])
			j++
		}
	}
	merged = append(merged, out[i:]...)
	merged = append(merged, extra[j:]...)
	return merged
}

// minPoint returns the canonical (lexicographically) first occupied point;
// ok is false for an empty configuration.
func (c *Config) minPoint() (lattice.Point, bool) {
	if c.n == 0 {
		return lattice.Point{}, false
	}
	var denseMin lattice.Point
	haveDense := false
	for q := 0; q < c.win.W && !haveDense; q++ {
		for i := q; i < len(c.cells); i += c.win.W {
			if c.cells[i] != 0 {
				denseMin = c.win.PointAt(i)
				haveDense = true
				break
			}
		}
	}
	if c.overflow == nil {
		return denseMin, haveDense
	}
	best, haveBest := denseMin, haveDense
	for k := range c.overflow {
		if p := unkey(k); !haveBest || lattice.Less(p, best) {
			best, haveBest = p, true
		}
	}
	return best, haveBest
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
	cp.cells = make([]uint8, len(c.cells))
	copy(cp.cells, c.cells)
	if c.overflow != nil {
		cp.overflow = make(map[uint64]Color, len(c.overflow))
		for k, v := range c.overflow {
			cp.overflow[k] = v
		}
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
	if c.overflow != nil {
		return c.connectedSparse()
	}
	// Dense flood fill over the window with constant index offsets; every
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

// connectedSparse is the map-based fallback for configurations with
// overflow particles (whose coordinates may be arbitrarily far apart).
func (c *Config) connectedSparse() bool {
	start, _ := c.minPoint()
	visited := map[uint64]bool{key(start): true}
	stack := []lattice.Point{start}
	count := 1
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range p.Neighbors() {
			nk := key(nb)
			if !visited[nk] && c.Occupied(nb) {
				visited[nk] = true
				count++
				stack = append(stack, nb)
			}
		}
	}
	return count == c.n
}

// HoleFree reports whether the configuration has no holes: no maximal finite
// connected component of unoccupied vertices. It flood-fills the unoccupied
// complement inside a one-cell-inflated bounding box; any unoccupied cell in
// the box not reached from the box border lies in a hole.
func (c *Config) HoleFree() bool {
	if c.n == 0 {
		return true
	}
	lo, hi := lattice.Bounds(c.Points())
	lo.Q--
	lo.R--
	hi.Q++
	hi.R++
	if !spanWithin(lo.Q, hi.Q, 0, 1<<22) || !spanWithin(lo.R, hi.R, 0, 1<<22) {
		// The bounding box is too spread out for a complement flood fill
		// (possible only for disconnected point sets, e.g. two particles
		// 2³¹ cells apart). Check per connected component instead.
		return c.holeFreeSparse()
	}
	width := hi.Q - lo.Q + 1
	height := hi.R - lo.R + 1
	idx := func(p lattice.Point) int { return (p.R-lo.R)*width + (p.Q - lo.Q) }
	inBox := func(p lattice.Point) bool {
		return p.Q >= lo.Q && p.Q <= hi.Q && p.R >= lo.R && p.R <= hi.R
	}
	visited := make([]bool, width*height)
	var stack []lattice.Point
	// Seed from every border cell of the box; the inflated border is
	// entirely unoccupied and part of the infinite exterior component.
	for q := lo.Q; q <= hi.Q; q++ {
		for _, r := range [2]int{lo.R, hi.R} {
			p := lattice.Point{Q: q, R: r}
			if !c.Occupied(p) && !visited[idx(p)] {
				visited[idx(p)] = true
				stack = append(stack, p)
			}
		}
	}
	for r := lo.R; r <= hi.R; r++ {
		for _, q := range [2]int{lo.Q, hi.Q} {
			p := lattice.Point{Q: q, R: r}
			if !c.Occupied(p) && !visited[idx(p)] {
				visited[idx(p)] = true
				stack = append(stack, p)
			}
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range p.Neighbors() {
			if !inBox(nb) || c.Occupied(nb) {
				continue
			}
			if i := idx(nb); !visited[i] {
				visited[i] = true
				stack = append(stack, nb)
			}
		}
	}
	// Any unoccupied, unvisited cell strictly inside the box is in a hole.
	for r := lo.R + 1; r < hi.R; r++ {
		for q := lo.Q + 1; q < hi.Q; q++ {
			p := lattice.Point{Q: q, R: r}
			if !c.Occupied(p) && !visited[idx(p)] {
				return false
			}
		}
	}
	return true
}

// holeFreeSparse handles point sets too spread out for a bounding-box flood
// fill: it partitions the particles into connected components and checks
// each component in isolation (translated near the origin). On a
// triangulated lattice the external boundary of a finite vacant region is a
// connected cycle of particles, so the union has a hole iff some single
// component does. A single connected component with a multi-million-cell
// span cannot arise from fewer particles than cells, so the recursion
// terminates after one level; the panic guards the impossible case.
func (c *Config) holeFreeSparse() bool {
	remaining := make(map[uint64]Color, c.n)
	c.ForEach(func(p lattice.Point, col Color) { remaining[key(p)] = col })
	for len(remaining) > 0 {
		// Extract one connected component.
		var start lattice.Point
		for k := range remaining {
			start = unkey(k)
			break
		}
		comp := []lattice.Point{start}
		delete(remaining, key(start))
		for i := 0; i < len(comp); i++ {
			for _, nb := range comp[i].Neighbors() {
				if _, ok := remaining[key(nb)]; ok {
					delete(remaining, key(nb))
					comp = append(comp, nb)
				}
			}
		}
		if len(comp) == c.n {
			panic("psys: connected component wider than its particle count")
		}
		sub := New()
		base := comp[0]
		for _, p := range comp {
			if err := sub.Place(p.Sub(base), 0); err != nil {
				panic("psys: component re-placement failed: " + err.Error())
			}
		}
		if !sub.HoleFree() {
			return false
		}
	}
	return true
}
