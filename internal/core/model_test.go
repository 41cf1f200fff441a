package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"sops/internal/lattice"
	"sops/internal/psys"
	"sops/internal/rng"
)

// TestModelRegistry pins the registry contract: the built-in models are
// present, the empty name resolves to separation (wire back-compat), and
// unknown names fail with the named error.
func TestModelRegistry(t *testing.T) {
	for _, want := range []string{"separation", "alignment", "anneal"} {
		m, err := LookupModel(want)
		if err != nil {
			t.Fatalf("LookupModel(%q): %v", want, err)
		}
		if m.Name() != want {
			t.Fatalf("LookupModel(%q) resolved %q", want, m.Name())
		}
	}
	m, err := LookupModel("")
	if err != nil || m.Name() != "separation" {
		t.Fatalf("empty model name resolved (%v, %v), want separation", m, err)
	}
	if _, err := LookupModel("no-such-model"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model error %v does not wrap ErrUnknownModel", err)
	}
	names := ModelNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("ModelNames not sorted: %v", names)
		}
	}
}

func TestValidateCouplings(t *testing.T) {
	if err := ValidateCouplings(Separation, []float64{4, 4}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		m    Model
		coup []float64
	}{
		{Separation, []float64{4}},             // wrong arity
		{Separation, []float64{0, 4}},          // non-positive
		{Separation, []float64{4, math.NaN()}}, // NaN
		{Anneal, []float64{4, 16, 2.5, 1000}},  // non-integral stage count
		{Anneal, []float64{4, 16, 3, 0}},       // integer coupling below 1
		{Alignment, []float64{4, 4, math.Inf(1)}},
	}
	for _, tc := range cases {
		if err := ValidateCouplings(tc.m, tc.coup); !errors.Is(err, ErrBadCoupling) {
			t.Errorf("ValidateCouplings(%s, %v) = %v, want ErrBadCoupling", tc.m.Name(), tc.coup, err)
		}
	}
}

// TestNewWithModelShortCouplings: a coupling vector shorter than the
// model's fails with ErrBadCoupling, before any coupling is read.
func TestNewWithModelShortCouplings(t *testing.T) {
	for _, m := range []Model{Separation, Alignment, Anneal} {
		for _, coup := range [][]float64{{}, DefaultCouplings(m)[:1]} {
			cfg := mustInitial(t, LayoutSpiral, []int{3, 3, 3}, 1)
			if _, err := NewWithModel(cfg, Params{Seed: 1}, m, coup); !errors.Is(err, ErrBadCoupling) {
				t.Errorf("%s with couplings %v: %v, want ErrBadCoupling", m.Name(), coup, err)
			}
		}
	}
}

// checkModelTables holds mt, built for m at effective couplings eff, to
// the seed rule: every exponent vector dE indexes the threshold
// acceptThreshold(Π_i eff_i^dE_i), the product of math.Pow terms formed
// right to left as retune forms it. For separation (eff = [λ, γ]) that
// is exactly the seed's acceptThreshold(λ^a·γ^b), and γ^k at the swap
// vectors (0, k). Every validity cell must match m.Valid.
func checkModelTables(t testing.TB, mt *modelTables, m Model, eff []float64) {
	t.Helper()
	dE := make([]int8, len(eff))
	for i := range dE {
		dE[i] = -maxExp
	}
	for {
		prob := 1.0
		for i := len(eff) - 1; i >= 0; i-- {
			prob *= math.Pow(eff[i], float64(dE[i]))
		}
		if got, want := mt.thresh[mt.flat(dE)], acceptThreshold(prob); got != want {
			t.Fatalf("%s at %v: thresh%v = %d, seed rule %d", m.Name(), eff, dE, got, want)
		}
		i := len(dE) - 1
		for ; i >= 0 && dE[i] == maxExp; i-- {
			dE[i] = -maxExp
		}
		if i < 0 {
			break
		}
		dE[i]++
	}
	for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
		for occ := 0; occ < 1<<8; occ++ {
			if mt.moveOK[d][occ] != m.Valid(d, uint8(occ)) {
				t.Fatalf("%s: moveOK[%v][%#x] diverges from Valid", m.Name(), d, occ)
			}
		}
	}
}

// TestModelTablesMatchLegacy verifies the bit-identity claim at the table
// level: the tables built from the separation model hold exactly the seed
// implementation's thresholds for every reachable exponent vector, across
// bias regimes, and a three-coupling model (alignment at k = 3) indexes
// every threshold where flat looks for it. The alignment couplings are
// chosen so their powers round, which makes the product order matter.
func TestModelTablesMatchLegacy(t *testing.T) {
	for _, tc := range []struct {
		m   Model
		eff []float64
	}{
		{Separation, []float64{4, 4}},
		{Separation, []float64{0.5, 0.7}},
		{Separation, []float64{1, 1}},
		{Separation, []float64{6.25, 81.0 / 79.0}},
		{Alignment.(Binder).Bind(3), []float64{1.3, 2.7, 1.9}},
	} {
		mt := modelTables{moveOK: validityOf(tc.m)}
		mt.retune(tc.eff)
		checkModelTables(t, &mt, tc.m, tc.eff)
	}
}

// TestValidityTableShared holds the once-per-model validity table to a
// fresh build through Model.Valid for every registered model, with
// alignment bound at k = 2 and k = 3: validityOf hands out one table per
// bound model, every cell equals Valid, and NewRule, the sharded executor
// and the chain decide through that table, which an anneal chain's
// threshold retune at a stage boundary leaves in place.
func TestValidityTableShared(t *testing.T) {
	var models []Model
	for _, name := range ModelNames() {
		m, err := LookupModel(name)
		if err != nil {
			t.Fatal(err)
		}
		if b, ok := m.(Binder); ok {
			models = append(models, b.Bind(2), b.Bind(3))
		} else {
			models = append(models, m)
		}
	}
	cfg, err := Initial(LayoutSpiral, []int{12, 12, 12}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		shared := validityOf(m)
		if validityOf(m) != shared {
			t.Fatalf("%s (%v): validityOf built a second table", m.Name(), m)
		}
		for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
			for occ := 0; occ < 1<<8; occ++ {
				if shared[d][occ] != m.Valid(d, uint8(occ)) {
					t.Fatalf("%s (%v): table[%v][%#x] diverges from Valid", m.Name(), m, d, occ)
				}
			}
		}
		coup := DefaultCouplings(m)
		if u := NewRule(m, coup[:m.NumExponents()], false); u.mt.moveOK != shared {
			t.Fatalf("%s (%v): NewRule does not use the shared table", m.Name(), m)
		}
		sh, err := NewShardedWithModel(cfg, Params{Seed: 1}, m, nil, ShardedOptions{Workers: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if b := sh.rule.model; sh.rule.mt.moveOK != validityOf(b) {
			t.Fatalf("%s (%v): sharded executor does not use the shared table", m.Name(), m)
		}
		ch, err := NewWithModel(cfg.Clone(), Params{Seed: 1}, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		b := ch.rule.model
		if ch.rule.mt.moveOK != validityOf(b) {
			t.Fatalf("%s (%v): chain does not use the shared table", m.Name(), m)
		}
	}
	// A scheduled chain retunes its thresholds at each stage boundary; the
	// retune must keep the shared validity table.
	ch, err := NewWithModel(cfg, Params{Seed: 1}, Anneal, []float64{4, 16, 3, 1_000})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]uint64(nil), ch.rule.mt.thresh...)
	ch.Run(1_500)
	if slices.Equal(before, ch.rule.mt.thresh) {
		t.Fatal("anneal chain did not retune at its stage boundary")
	}
	if ch.rule.mt.moveOK != validityOf(Anneal) {
		t.Fatal("anneal: retune replaced the validity table")
	}
}

// FuzzModelTables fuzzes the bias parameters and requires the separation
// tables to stay bit-identical to the seed rule everywhere.
func FuzzModelTables(f *testing.F) {
	f.Add(4.0, 4.0)
	f.Add(0.5, 0.5)
	f.Add(1.0, 1e6)
	f.Add(1e-6, 1.0247)
	f.Fuzz(func(t *testing.T, lambda, gamma float64) {
		if (Params{Lambda: lambda, Gamma: gamma}).Validate() != nil {
			t.Skip()
		}
		eff := []float64{lambda, gamma}
		mt := modelTables{moveOK: validityOf(Separation)}
		mt.retune(eff)
		checkModelTables(t, &mt, Separation, eff)
	})
}

// TestRotationCovariance pins the premise of the amoebot agent program,
// which gathers in its private port frame and decides at its private
// direction: rotating a local configuration together with the proposal
// direction must leave the model's validity, move exponents and swap
// exponents unchanged. It covers every registered model, with alignment
// bound at k = 2 and k = 3, over random colored configurations of the 19
// cells within distance 2 of l, every direction and rotations 1–5.
func TestRotationCovariance(t *testing.T) {
	// One rotation step maps each directions[d] to directions[d+1]; the
	// map is linear, so the images of the axial unit vectors fix it.
	var eq, er lattice.Point
	for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
		switch d.Offset() {
		case lattice.Point{Q: 1}:
			eq = d.Next().Offset()
		case lattice.Point{R: 1}:
			er = d.Next().Offset()
		}
	}
	rotate := func(p lattice.Point, k int) lattice.Point {
		for ; k > 0; k-- {
			p = lattice.Point{Q: p.Q*eq.Q + p.R*er.Q, R: p.Q*eq.R + p.R*er.R}
		}
		return p
	}
	type bound struct {
		m      Model
		colors int
	}
	var cases []bound
	for _, name := range ModelNames() {
		m, err := LookupModel(name)
		if err != nil {
			t.Fatal(err)
		}
		if b, ok := m.(Binder); ok {
			cases = append(cases, bound{b.Bind(2), 2}, bound{b.Bind(3), 3})
		} else {
			cases = append(cases, bound{m, 3})
		}
	}
	origin := lattice.Point{}
	cells := append([]lattice.Point{origin}, lattice.Ring(origin, 1)...)
	cells = append(cells, lattice.Ring(origin, 2)...)
	r := rng.New(41)
	checked := 0
	for _, tc := range cases {
		k := tc.m.NumExponents()
		dE, dER := make([]int8, k), make([]int8, k)
		for trial := 0; trial < 300; trial++ {
			occ := map[lattice.Point]psys.Color{}
			for i, p := range cells {
				if i == 0 || r.Intn(2) == 0 {
					occ[p] = psys.Color(r.Intn(tc.colors))
				}
			}
			for rot := 1; rot < lattice.NumDirections; rot++ {
				// The rotated configuration holds cell p's color at
				// rotate(p, rot), so it reads q from rotate(q, 6−rot).
				at := func(q lattice.Point) (psys.Color, bool) { c, ok := occ[q]; return c, ok }
				atRot := func(q lattice.Point) (psys.Color, bool) {
					return at(rotate(q, lattice.NumDirections-rot))
				}
				for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
					dr := (d + lattice.Direction(rot)) % lattice.NumDirections
					g := psys.GatherPairFrom(at, origin, d)
					gr := psys.GatherPairFrom(atRot, origin, dr)
					checked++
					if _, occupied := g.LpColor(); occupied {
						ok, okR := tc.m.SwapExponents(&g, dE), tc.m.SwapExponents(&gr, dER)
						if ok != okR || !slices.Equal(dE, dER) {
							t.Fatalf("%s k=%d rot %d dir %v: swap %v %v, rotated %v %v", tc.m.Name(), tc.colors, rot, d, ok, dE, okR, dER)
						}
						continue
					}
					if v, vR := tc.m.Valid(d, g.Occ()), tc.m.Valid(dr, gr.Occ()); v != vR {
						t.Fatalf("%s k=%d rot %d dir %v: valid %v, rotated %v", tc.m.Name(), tc.colors, rot, d, v, vR)
					}
					tc.m.MoveExponents(&g, dE)
					tc.m.MoveExponents(&gr, dER)
					if !slices.Equal(dE, dER) {
						t.Fatalf("%s k=%d rot %d dir %v: move %v, rotated %v", tc.m.Name(), tc.colors, rot, d, dE, dER)
					}
				}
			}
		}
	}
	t.Logf("%d rotated gathers agree", checked)
}

// chainFingerprint summarizes a chain's complete dynamical state for
// differential comparison.
func chainFingerprint(t *testing.T, c *Chain) (Stats, uint64, string) {
	t.Helper()
	var cp Checkpoint
	c.Checkpoint(&cp)
	return c.Stats(), c.Config().Hash(), string(cp.Rng)
}

// TestAlignmentExponentsMatchEnergy is the correctness audit for the
// alignment kernel: along a run, for every (particle, direction) proposal
// of the live configuration, the claimed exponent vector must reproduce
// the exact Hamiltonian difference of applying the operation —
// E(σ′) − E(σ) = −Σ_i dE_i·ln(coup_i) — computed by brute force on a
// cloned configuration.
func TestAlignmentExponentsMatchEnergy(t *testing.T) {
	cfg, err := Initial(LayoutLine, []int{16, 16, 16}, 11)
	if err != nil {
		t.Fatal(err)
	}
	coup := []float64{3, 5, 2} // lambda, alpha, beta
	ch, err := NewWithModel(cfg, Params{Seed: 11}, Alignment, coup)
	if err != nil {
		t.Fatal(err)
	}
	m := ch.Model()
	logc := []float64{math.Log(coup[0]), math.Log(coup[1]), math.Log(coup[2])}
	dE := make([]int8, m.NumExponents())
	audits := 0
	for leg := 0; leg < 10; leg++ {
		ch.Run(4_000)
		c := ch.Config()
		base := m.Energy(c, coup)
		for _, pt := range c.Particles() {
			for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
				g := c.GatherPair(pt.Pos, d)
				lp := pt.Pos.Neighbor(d)
				clone := c.Clone()
				var want float64
				if lpc, occupied := g.LpColor(); occupied {
					if !m.SwapExponents(&g, dE) {
						continue // vetoed proposal, nothing to audit
					}
					if lc, _ := g.LColor(); lc == lpc {
						// Same-color swaps are configuration no-ops accepted at
						// α^{−2} by convention (the separation kernel's γ^{−2});
						// their exponent vector is pinned, not energy-derived.
						if dE[0] != 0 || dE[1] != -2 || dE[2] != 0 {
							t.Fatalf("same-color swap exponents %v, want [0 -2 0]", dE)
						}
						audits++
						continue
					}
					if err := clone.ApplySwap(pt.Pos, lp); err != nil {
						t.Fatal(err)
					}
					want = m.Energy(clone, coup) - base
				} else {
					if !c.MoveValid(pt.Pos, lp) {
						continue
					}
					m.MoveExponents(&g, dE)
					if err := clone.ApplyMove(pt.Pos, lp); err != nil {
						t.Fatal(err)
					}
					want = m.Energy(clone, coup) - base
				}
				got := 0.0
				for i, e := range dE {
					got -= float64(e) * logc[i]
				}
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("leg %d: proposal at %v dir %v: exponents %v claim ΔE=%g, brute force %g",
						leg, pt.Pos, d, dE, got, want)
				}
				for _, e := range dE {
					if e < -maxExp || e > maxExp {
						t.Fatalf("exponent %d outside table headroom ±%d", e, maxExp)
					}
				}
				audits++
			}
		}
	}
	if audits == 0 {
		t.Fatal("audit swept no proposals")
	}
}

// TestAlignmentChainEndToEnd runs the alignment chain and checks the
// lattice-gas invariants hold, the statistics account for every step, and
// the exported observables are sane.
func TestAlignmentChainEndToEnd(t *testing.T) {
	cfg, err := Initial(LayoutSpiral, []int{20, 20, 20, 20}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewWithModel(cfg, Params{Seed: 3}, Alignment, []float64{4, 6, 2})
	if err != nil {
		t.Fatal(err)
	}
	ch.Run(150_000)
	if err := ch.Config().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := ch.Stats()
	if st.Steps != 150_000 || st.Moves+st.Swaps+st.Rejected != st.Steps {
		t.Fatalf("inconsistent stats: %+v", st)
	}
	names, vals := ch.Observables()
	if len(names) != 3 || len(vals) != 3 {
		t.Fatalf("observables %v %v", names, vals)
	}
	for i, v := range vals {
		if math.IsNaN(v) || v < 0 || v > 1+1e-12 {
			t.Fatalf("observable %s = %v outside [0,1]", names[i], v)
		}
	}
	// Strong aligned bias must pull alignedFrac well above the uniform 1/4.
	if vals[0] < 0.3 {
		t.Fatalf("alignedFrac %v did not rise above uniform with α=6", vals[0])
	}
}

// TestAlignmentCheckpointResume pins trajectory-exact resume through the
// JSON checkpoint document for a non-separation model: the model name and
// coupling vector round-trip, and the resumed chain continues bit-identical.
func TestAlignmentCheckpointResume(t *testing.T) {
	cfg, err := Initial(LayoutSpiral, []int{15, 15, 15}, 8)
	if err != nil {
		t.Fatal(err)
	}
	coup := []float64{4, 6, 2}
	ch, err := NewWithModel(cfg, Params{Seed: 8}, Alignment, coup)
	if err != nil {
		t.Fatal(err)
	}
	ch.Run(30_000)
	var cp Checkpoint
	ch.Checkpoint(&cp)
	if cp.Model != "alignment" {
		t.Fatalf("checkpoint model %q", cp.Model)
	}
	data, err := cp.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	res, err := Resume(&back)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelName() != "alignment" {
		t.Fatalf("resumed model %q", res.ModelName())
	}
	ch.Run(30_000)
	res.Run(30_000)
	os, oh, orng := chainFingerprint(t, ch)
	rs, rh, rrng := chainFingerprint(t, res)
	if os != rs || oh != rh || orng != rrng {
		t.Fatal("resumed alignment chain diverges from the original")
	}
}

// TestAnnealEffective pins the schedule arithmetic: stage boundaries,
// geometric γ interpolation, the pure-compression opening stage, and the
// terminal stage's "no further rebuild" sentinel.
func TestAnnealEffective(t *testing.T) {
	s, ok := Anneal.(Scheduler)
	if !ok {
		t.Fatal("anneal model does not implement Scheduler")
	}
	coup := []float64{4, 16, 3, 1_000} // λ, γ, stages, stageSteps
	eff := make([]float64, 2)
	cases := []struct {
		step    uint64
		gamma   float64
		nextReb uint64
	}{
		{0, 1, 1_000}, // stage 0: pure compression
		{999, 1, 1_000},
		{1_000, 4, 2_000}, // stage 1: 16^(1/2)
		{1_999, 4, 2_000},
		{2_000, 16, math.MaxUint64}, // final stage: full γ
		{1 << 40, 16, math.MaxUint64},
	}
	for _, tc := range cases {
		next := s.Effective(coup, tc.step, eff)
		if eff[0] != 4 {
			t.Fatalf("step %d: effective λ %v changed", tc.step, eff[0])
		}
		if math.Abs(eff[1]-tc.gamma) > 1e-12 {
			t.Fatalf("step %d: effective γ %v, want %v", tc.step, eff[1], tc.gamma)
		}
		if next != tc.nextReb {
			t.Fatalf("step %d: next rebuild %d, want %d", tc.step, next, tc.nextReb)
		}
	}
	// A single-stage schedule is the plain separation chain at γ.
	if s.Effective([]float64{4, 16, 1, 500}, 0, eff); eff[1] != 16 {
		t.Fatalf("single-stage effective γ %v, want 16", eff[1])
	}
}

// TestAnnealCheckpointExactResume is the annealed-schedule acceptance
// criterion: checkpoint an anneal chain at an awkward point (mid-stage,
// with a stage boundary still ahead), resume it, and require the resumed
// chain to cross the boundary and finish bit-identical to the
// uninterrupted run — the schedule recomputes purely from the restored
// step counter.
func TestAnnealCheckpointExactResume(t *testing.T) {
	coup := []float64{4, 16, 3, 2_000} // boundaries at 2k and 4k steps
	mk := func() *Chain {
		cfg, err := Initial(LayoutSpiral, Bichromatic(150), 6)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := NewWithModel(cfg, Params{Seed: 42}, Anneal, coup)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	full := mk()
	full.Run(9_000)

	split := mk()
	split.Run(3_100) // inside stage 1, boundary at 4_000 ahead
	var cp Checkpoint
	split.Checkpoint(&cp)
	if cp.Model != "anneal" || len(cp.Couplings) != 4 {
		t.Fatalf("anneal checkpoint carries model %q couplings %v", cp.Model, cp.Couplings)
	}
	data, err := cp.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	res, err := Resume(&back)
	if err != nil {
		t.Fatal(err)
	}
	res.Run(9_000 - 3_100)

	fs, fh, fr := chainFingerprint(t, full)
	rs, rh, rr := chainFingerprint(t, res)
	if fs != rs {
		t.Fatalf("stats diverge: full %+v resumed %+v", fs, rs)
	}
	if fh != rh || fr != rr {
		t.Fatal("resumed anneal chain diverges from the uninterrupted run across a stage boundary")
	}

	// The terminal stage must be running the full separation bias.
	names, vals := res.Observables()
	if names[0] != "gammaEff" || vals[0] != 16 {
		t.Fatalf("final-stage %s = %v, want 16", names[0], vals[0])
	}
}

// TestShardedAlignmentSerializabilityAudit extends the sharded
// serializability argument to a non-separation model: the alignment model
// shares the separation validity predicate, so the ticket-sorted log of a
// concurrent alignment run must replay serially onto the same final
// configuration with every move valid in the serial order.
func TestShardedAlignmentSerializabilityAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second concurrent audit")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	const n = 6_000
	counts := []int{n / 3, n / 3, n / 3}
	cfg, err := Initial(LayoutSpiral, counts, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("P%d", workers), func(t *testing.T) {
			initial := cfg.Clone()
			s, err := NewShardedWithModel(cfg.Clone(), Params{Seed: uint64(300 + workers)}, Alignment,
				[]float64{4, 6, 2}, ShardedOptions{
					Workers:   workers,
					Seed:      uint64(300 + workers),
					RecordLog: true,
				})
			if err != nil {
				t.Fatal(err)
			}
			const steps = 4 * n
			done, err := s.Run(context.Background(), steps)
			if err != nil {
				t.Fatal(err)
			}
			if done != steps {
				t.Fatalf("done = %d, want %d", done, steps)
			}
			st := s.Stats()
			if st.Steps != steps || st.Moves+st.Swaps+st.Rejected != st.Steps {
				t.Fatalf("inconsistent stats: %+v", st)
			}
			log := s.Log()
			if uint64(len(log)) != st.Moves+st.Swaps {
				t.Fatalf("log has %d records, stats count %d accepted", len(log), st.Moves+st.Swaps)
			}
			if err := ReplayLog(initial, log); err != nil {
				t.Fatal(err)
			}
			final, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !initial.Equal(final) {
				t.Fatal("serial replay does not reproduce the concurrent alignment run")
			}
			if err := initial.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedAnnealSchedule drives the scheduled model on the sharded
// executor: epoch budgets must stop exactly at stage boundaries so every
// proposal is judged under the stage's tables, and the invariants hold
// after crossing into the terminal stage.
func TestShardedAnnealSchedule(t *testing.T) {
	cfg, err := Initial(LayoutSpiral, Bichromatic(2_000), 23)
	if err != nil {
		t.Fatal(err)
	}
	coup := []float64{4, 16, 3, 9_000}
	s, err := NewShardedWithModel(cfg, Params{Seed: 23}, Anneal, coup, ShardedOptions{
		Workers: 4,
		Seed:    23,
	})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 30_000 // crosses both boundaries (9k, 18k)
	done, err := s.Run(context.Background(), steps)
	if err != nil {
		t.Fatal(err)
	}
	if done != steps {
		t.Fatalf("done = %d, want %d", done, steps)
	}
	st := s.Stats()
	if st.Steps != steps || st.Moves+st.Swaps+st.Rejected != st.Steps {
		t.Fatalf("inconsistent stats: %+v", st)
	}
	final, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := final.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().Audit(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkChainStepAlignment measures a real non-separation workload on
// the chain kernel: the 3-color alignment Hamiltonian at the same scale
// as the separation kernel benchmarks.
func BenchmarkChainStepAlignment(b *testing.B) {
	cfg := mustInitial(b, LayoutLine, []int{34, 33, 33}, 1)
	m, err := LookupModel("alignment")
	if err != nil {
		b.Fatal(err)
	}
	ch, err := NewWithModel(cfg, Params{Lambda: 4, Gamma: 4, Seed: 1}, m,
		[]float64{4, 6, 2})
	if err != nil {
		b.Fatal(err)
	}
	ch.Run(200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}
