package psys

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sops/internal/lattice"
)

// This file is the differential layer between the dense-grid Config and the
// seed's map-backed refConfig (ref_test.go): testing/quick drives both
// through identical operation sequences and every observable must agree.

// diffOp is a single randomized operation applied to both stores.
type diffOp struct {
	Kind byte // 0 place, 1 remove, 2 move, 3 swap
	P    lattice.Point
	D    lattice.Direction
	Col  Color
}

// diffSeq generates operation sequences clustered on a small patch of the
// lattice (so removes, moves and swaps actually hit particles) with a few
// far-flung placements mixed in to cross window growth, compaction and the
// area budget.
type diffSeq []diffOp

func (diffSeq) Generate(r *rand.Rand, size int) reflect.Value {
	n := 40 + r.Intn(160)
	seq := make(diffSeq, n)
	for i := range seq {
		p := lattice.Point{Q: r.Intn(13) - 6, R: r.Intn(13) - 6}
		switch r.Intn(40) {
		case 0:
			// Far placement: would need a window well past the area
			// budget, so the dense store refuses it with ErrSpread.
			p.Q *= 1 << 20
			p.R *= 1 << 20
		case 1:
			// Medium jump: forces a plain window regrow and reindex.
			p.Q *= 37
			p.R *= 37
		}
		seq[i] = diffOp{
			Kind: byte(r.Intn(4)),
			P:    p,
			D:    lattice.Direction(r.Intn(lattice.NumDirections)),
			Col:  Color(r.Intn(4)),
		}
	}
	return reflect.ValueOf(seq)
}

// opStore is the mutation surface the dense Config, the reference store
// and the tile store share.
type opStore interface {
	Place(p lattice.Point, col Color) error
	Remove(p lattice.Point) error
	ApplyMove(l, lp lattice.Point) error
	ApplySwap(l, lp lattice.Point) error
}

// apply performs op on s.
func (op diffOp) apply(s opStore) error {
	switch op.Kind {
	case 0:
		return s.Place(op.P, op.Col)
	case 1:
		return s.Remove(op.P)
	case 2:
		return s.ApplyMove(op.P, op.P.Neighbor(op.D))
	}
	return s.ApplySwap(op.P, op.P.Neighbor(op.D))
}

// applyDense performs op on the dense store. An operation the store
// refuses with ErrSpread must leave it Equal to a clone taken before, with
// the same statistics and clean counts; refused then tells the caller to
// skip the operation on the other store, which has no area budget.
func applyDense(c *Config, op diffOp) (refused bool, err error) {
	before := c.Clone()
	err = op.apply(c)
	if !errors.Is(err, ErrSpread) {
		return false, err
	}
	if err := sameAs(c, before); err != nil {
		return true, fmt.Errorf("refused op %+v: %v", op, err)
	}
	return true, nil
}

// sameAs checks that c still holds before's configuration and statistics
// and audits clean.
func sameAs(c, before *Config) error {
	if !c.Equal(before) || c.Edges() != before.Edges() || c.HomEdges() != before.HomEdges() {
		return fmt.Errorf("store changed: n %d→%d, e %d→%d, a %d→%d",
			before.N(), c.N(), before.Edges(), c.Edges(), before.HomEdges(), c.HomEdges())
	}
	return c.CheckCounts()
}

// applyBoth applies op to both stores and checks the error verdicts agree.
func applyBoth(c *Config, ref *refConfig, op diffOp) error {
	refused, errC := applyDense(c, op)
	if refused {
		return errC
	}
	if errR := op.apply(ref); (errC == nil) != (errR == nil) {
		return fmt.Errorf("op %+v: dense err %v, reference err %v", op, errC, errR)
	}
	return nil
}

// compareStores checks every observable the two stores share.
func compareStores(c *Config, ref *refConfig) error {
	if c.N() != ref.N() {
		return fmt.Errorf("n: dense %d, reference %d", c.N(), ref.N())
	}
	if c.Edges() != ref.Edges() || c.HomEdges() != ref.HomEdges() || c.HetEdges() != ref.HetEdges() {
		return fmt.Errorf("edges: dense e=%d a=%d h=%d, reference e=%d a=%d h=%d",
			c.Edges(), c.HomEdges(), c.HetEdges(), ref.Edges(), ref.HomEdges(), ref.HetEdges())
	}
	if c.Perimeter() != ref.Perimeter() {
		return fmt.Errorf("perimeter: dense %d, reference %d", c.Perimeter(), ref.Perimeter())
	}
	for col := Color(0); col < MaxColors; col++ {
		if c.ColorCount(col) != ref.colorCount[col] {
			return fmt.Errorf("color %d count: dense %d, reference %d",
				col, c.ColorCount(col), ref.colorCount[col])
		}
	}
	cp, rp := c.Points(), ref.Points()
	if len(cp) != len(rp) {
		return fmt.Errorf("points: dense %d, reference %d", len(cp), len(rp))
	}
	for i := range cp {
		if cp[i] != rp[i] {
			return fmt.Errorf("points[%d]: dense %v, reference %v", i, cp[i], rp[i])
		}
		cc, _ := c.At(cp[i])
		rc, ok := ref.At(cp[i])
		if !ok || cc != rc {
			return fmt.Errorf("color at %v: dense %d, reference %d (ok=%v)", cp[i], cc, rc, ok)
		}
	}
	cw, rw := c.BoundaryWalk(), ref.BoundaryWalk()
	if len(cw) != len(rw) {
		return fmt.Errorf("boundary walk length: dense %d, reference %d", len(cw), len(rw))
	}
	for i := range cw {
		if cw[i] != rw[i] {
			return fmt.Errorf("boundary walk[%d]: dense %v, reference %v", i, cw[i], rw[i])
		}
	}
	return nil
}

// TestDiffRandomOps: arbitrary operation sequences leave the dense store and
// the map-backed reference observationally identical, and the dense store's
// internal bookkeeping audits clean after every operation.
func TestDiffRandomOps(t *testing.T) {
	check := func(seq diffSeq) bool {
		c, ref := New(), newRef()
		for i, op := range seq {
			if err := applyBoth(c, ref, op); err != nil {
				t.Logf("step %d: %v", i, err)
				return false
			}
			if err := c.CheckCounts(); err != nil {
				t.Logf("step %d (%+v): %v", i, op, err)
				return false
			}
		}
		if err := compareStores(c, ref); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 60,
		Rand:     rand.New(rand.NewSource(1)),
	}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDiffMoveValidAgreement: the locally checkable movement predicate gives
// the same verdict over both stores, for every occupied node and direction of
// a randomized connected configuration.
func TestDiffMoveValidAgreement(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, ref := New(), newRef()
		// Random connected blob: repeatedly attach a particle to the
		// neighborhood of an existing one.
		pts := []lattice.Point{{}}
		mustBoth(t, c, ref, lattice.Point{}, Color(r.Intn(3)))
		for len(pts) < 40 {
			base := pts[r.Intn(len(pts))]
			p := base.Neighbor(lattice.Direction(r.Intn(lattice.NumDirections)))
			if c.Occupied(p) {
				continue
			}
			mustBoth(t, c, ref, p, Color(r.Intn(3)))
			pts = append(pts, p)
		}
		for _, l := range pts {
			for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
				lp := l.Neighbor(d)
				if c.MoveValid(l, lp) != ref.MoveValid(l, lp) {
					t.Logf("MoveValid(%v, %v): dense %v, reference %v",
						l, lp, c.MoveValid(l, lp), ref.MoveValid(l, lp))
					return false
				}
			}
		}
		return compareStores(c, ref) == nil
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func mustBoth(t *testing.T, c *Config, ref *refConfig, p lattice.Point, col Color) {
	t.Helper()
	if err := c.Place(p, col); err != nil {
		t.Fatal(err)
	}
	if err := ref.Place(p, col); err != nil {
		t.Fatal(err)
	}
}

// TestConnectedNeverRefused: connected configurations — the chain's entire
// state space — always fit the window budget, whatever their shape, and
// every particle lives in the window's interior. A (1,−1) diagonal string
// spans n cells along both axes, the most a connected configuration can.
// It is built in order with Place, then through NewFrom in shuffled order,
// and then a valid move at the window's edge must grow the window through
// ApplyMove's general path. The chain's particle index relies on this.
func TestConnectedNeverRefused(t *testing.T) {
	const n = 3000
	diag := make([]Particle, n)
	for i := range diag {
		diag[i] = Particle{Pos: lattice.Point{Q: i, R: -i}, Color: Color(i % 2)}
	}
	placed := New()
	for _, pt := range diag {
		if err := placed.Place(pt.Pos, pt.Color); err != nil {
			t.Fatalf("place %v after %d particles: %v", pt.Pos, placed.N(), err)
		}
		if !placed.Window().Interior(pt.Pos) {
			t.Fatalf("particle %v outside the window interior %+v", pt.Pos, placed.Window())
		}
	}
	shuffled := append([]Particle(nil), diag...)
	rand.New(rand.NewSource(5)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	c, err := NewFrom(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []*Config{placed, c} {
		if !cfg.Equal(c) || cfg.Edges() != n-1 {
			t.Fatalf("string: n=%d e=%d, want the %d-particle string", cfg.N(), cfg.Edges(), n)
		}
		if err := cfg.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}

	// Run an arm east from the string's end to the window's last interior
	// column, where l = (a, b) is the arm's tip, and put two particles
	// above the arm's last two cells. Moving l east to lp = (a+1, b) keeps
	// the configuration connected through (a, b+1), and lp is on the
	// border ring, so the move must grow the window.
	end := diag[n-1].Pos
	a := c.Window().Max().Q - 1
	for q := end.Q + 1; q <= a; q++ {
		if err := c.Place(lattice.Point{Q: q, R: end.R}, 0); err != nil {
			t.Fatal(err)
		}
	}
	l := lattice.Point{Q: a, R: end.R}
	for _, p := range []lattice.Point{{Q: a - 1, R: end.R + 1}, {Q: a, R: end.R + 1}} {
		if err := c.Place(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	lp := l.Neighbor(0)
	win := c.Window()
	if atDepth2(win, l) || win.Interior(lp) {
		t.Fatalf("move %v→%v is not at the edge of window %+v", l, lp, win)
	}
	if !c.MoveValid(l, lp) {
		t.Fatalf("move %v→%v should be valid", l, lp)
	}
	if err := c.ApplyMove(l, lp); err != nil {
		t.Fatal(err)
	}
	if c.Window() == win || !c.Window().Interior(lp) {
		t.Fatalf("window %+v did not grow around %v", c.Window(), lp)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedOpsLeaveConfig: a Place, ApplyMove or ApplySwap that returns
// an error leaves the Config Equal to a clone taken before it, with clean
// counts. Placements and moves past the area budget fail with ErrSpread.
func TestRefusedOpsLeaveConfig(t *testing.T) {
	// The tight cover of these three particles fills the 32×32-cell
	// budget of a few particles.
	c := New()
	for _, pt := range []Particle{{lattice.Point{}, 0}, {lattice.Point{Q: 1}, 1}, {lattice.Point{Q: 13, R: -13}, 1}} {
		if err := c.Place(pt.Pos, pt.Color); err != nil {
			t.Fatal(err)
		}
	}
	// A particle in the window's last interior column: placing it does not
	// grow the window, and moving it east would need a window 41 cells
	// wide and 32 tall, past the budget.
	edge := lattice.Point{Q: c.Window().Max().Q - 1, R: -13}
	if err := c.Place(edge, 0); err != nil {
		t.Fatal(err)
	}
	far := lattice.Point{Q: 1 << 30}
	cases := []struct {
		name string
		op   func() error
		want error
	}{
		{"place far", func() error { return c.Place(far, 0) }, ErrSpread},
		{"place occupied", func() error { return c.Place(edge, 1) }, ErrOccupied},
		{"place color", func() error { return c.Place(lattice.Point{R: 3}, MaxColors) }, ErrColorRange},
		{"move past budget", func() error { return c.ApplyMove(edge, edge.Neighbor(0)) }, ErrSpread},
		{"move from vacant", func() error { return c.ApplyMove(lattice.Point{Q: 5}, lattice.Point{Q: 6}) }, ErrVacant},
		{"move onto particle", func() error { return c.ApplyMove(lattice.Point{}, lattice.Point{Q: 1}) }, ErrOccupied},
		{"move not adjacent", func() error { return c.ApplyMove(lattice.Point{}, lattice.Point{Q: 2}) }, ErrNotAdjacent},
		{"swap with vacant", func() error { return c.ApplySwap(edge, edge.Neighbor(0)) }, ErrVacant},
		{"swap not adjacent", func() error { return c.ApplySwap(lattice.Point{}, lattice.Point{Q: 13}) }, ErrNotAdjacent},
	}
	for _, tc := range cases {
		before := c.Clone()
		if err := tc.op(); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err %v, want %v", tc.name, err, tc.want)
		}
		if err := sameAs(c, before); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestDiffChainDynamics walks a connected configuration through a long
// random sequence of valid moves and swaps — the chain's actual dynamics —
// comparing boundary walks and full state at a fixed cadence.
func TestDiffChainDynamics(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c, ref := New(), newRef()
	for i := 0; i < 60; i++ {
		mustBoth(t, c, ref, lattice.Point{Q: i}, Color(i%2))
	}
	steps := 4000
	if testing.Short() {
		steps = 500
	}
	for i := 0; i < steps; i++ {
		pts := c.Points()
		l := pts[r.Intn(len(pts))]
		d := lattice.Direction(r.Intn(lattice.NumDirections))
		lp := l.Neighbor(d)
		if c.Occupied(lp) {
			if err := applyBoth(c, ref, diffOp{Kind: 3, P: l, D: d}); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		} else if c.MoveValid(l, lp) {
			if !ref.MoveValid(l, lp) {
				t.Fatalf("step %d: MoveValid(%v, %v) disagrees", i, l, lp)
			}
			if err := applyBoth(c, ref, diffOp{Kind: 2, P: l, D: d}); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		if i%200 == 0 {
			if err := compareStores(c, ref); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := compareStores(c, ref); err != nil {
		t.Fatal(err)
	}
}
