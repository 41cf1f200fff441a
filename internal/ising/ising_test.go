package ising_test

import (
	"errors"
	"math"
	"testing"

	"sops/internal/core"
	"sops/internal/enumerate"
	"sops/internal/ising"
	"sops/internal/lattice"
	"sops/internal/metrics"
	"sops/internal/psys"
)

// hexShape builds a hexagon-patch configuration whose points, in canonical
// order, take the colors in runs of len/colors, the last color taking the
// remainder: with two colors the first half is color 0 and the rest color 1.
func hexShape(t testing.TB, radius, colors int) *psys.Config {
	t.Helper()
	pts := lattice.Hexagon(lattice.Point{}, radius)
	lattice.SortPoints(pts)
	cfg := psys.New()
	per := len(pts) / colors
	for i, p := range pts {
		if err := cfg.Place(p, psys.Color(min(i/per, colors-1))); err != nil {
			t.Fatal(err)
		}
	}
	return cfg
}

// kawasaki builds chain M restricted to swaps over cfg's shape.
func kawasaki(t testing.TB, cfg *psys.Config, gamma float64, seed uint64) *core.Chain {
	t.Helper()
	ch, err := core.NewWithModel(cfg, core.Params{Seed: seed}, ising.Kawasaki, []float64{gamma})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestNewKawasakiValidation(t *testing.T) {
	_, err := core.NewWithModel(hexShape(t, 1, 2), core.Params{Seed: 1}, ising.Kawasaki, []float64{0})
	if !errors.Is(err, core.ErrBadCoupling) {
		t.Fatalf("gamma=0: %v", err)
	}
}

func TestKawasakiConservation(t *testing.T) {
	cfg := hexShape(t, 2, 2)
	n0, n1 := cfg.ColorCount(0), cfg.ColorCount(1)
	pointsBefore := cfg.Points()
	k := kawasaki(t, cfg, 4, 7)
	k.Run(100000)
	if k.Stats().Swaps == 0 {
		t.Fatal("no swaps accepted")
	}
	if cfg.ColorCount(0) != n0 || cfg.ColorCount(1) != n1 {
		t.Fatal("Kawasaki changed color counts")
	}
	after := cfg.Points()
	if len(after) != len(pointsBefore) {
		t.Fatal("occupied set size changed")
	}
	for i := range after {
		if after[i] != pointsBefore[i] {
			t.Fatal("Kawasaki moved a particle")
		}
	}
}

// TestKawasakiStationary verifies that the swap chain samples
// π_P ∝ γ^{−h(σ)} exactly: on a small shape, the empirical distribution
// over colorings matches the enumerated one.
func TestKawasakiStationary(t *testing.T) {
	if testing.Short() {
		t.Skip("long sampling run")
	}
	// Shape: hexagon r=1 (7 vertices), 3 black / 4 white: C(7,3)=35 states.
	cfg := hexShape(t, 1, 2)
	gamma := 2.0
	// Enumerate all colorings of the fixed shape with the same counts.
	pts := cfg.Points()
	n := len(pts)
	var states []string
	weights := map[string]float64{}
	var rec func(i, used int, cur []psys.Color)
	count0 := cfg.ColorCount(0)
	var cur [16]psys.Color
	rec = func(i, used int, _ []psys.Color) {
		if used > count0 || (n-i) < (count0-used) {
			return
		}
		if i == n {
			c := psys.New()
			for j, p := range pts {
				if err := c.Place(p, cur[j]); err != nil {
					t.Fatal(err)
				}
			}
			key := c.CanonicalKey()
			states = append(states, key)
			weights[key] = math.Pow(gamma, -float64(c.HetEdges()))
			return
		}
		cur[i] = 0
		rec(i+1, used+1, nil)
		cur[i] = 1
		rec(i+1, used, nil)
	}
	rec(0, 0, nil)
	if len(states) != 35 {
		t.Fatalf("enumerated %d colorings, want 35", len(states))
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	pi := make(map[string]float64, len(weights))
	for k, w := range weights {
		pi[k] = w / total
	}

	k := kawasaki(t, cfg, gamma, 11)
	k.Run(20000)
	hist := map[string]float64{}
	const samples = 200000
	for s := 0; s < samples; s++ {
		k.Run(3)
		hist[k.Config().CanonicalKey()]++
	}
	tv := 0.0
	for key, p := range pi {
		tv += math.Abs(p - hist[key]/samples)
	}
	tv /= 2
	if tv > 0.02 {
		t.Fatalf("Kawasaki empirical vs exact TV = %v > 0.02", tv)
	}
}

// TestKawasakiSeparates reproduces the Theorem 14 mechanism: at large γ on
// a fixed compressed shape, the conserved-color chain reaches separated
// colorings; at γ = 1 it stays mixed (Theorem 16 regime).
func TestKawasakiSeparates(t *testing.T) {
	cfg := hexShape(t, 3, 2) // 37 particles, half-plane start
	// Scramble first with γ=1 (uniform swaps).
	kawasaki(t, cfg, 1, 3).Run(200000)
	mixedSeg := metrics.SegregationIndex(cfg)

	kawasaki(t, cfg, 6, 4).Run(2000000)
	sepSeg := metrics.SegregationIndex(cfg)
	if sepSeg < mixedSeg+0.3 {
		t.Fatalf("γ=6 segregation %v not well above γ=1 level %v", sepSeg, mixedSeg)
	}
}

// TestHighTemperatureExpansion verifies the exact even-subgraph identity
// Z = x^{|E|}·2^{|V|}·Σ_{even} B^{|E'|} against brute force over all
// colorings, on several shapes and γ values including γ < 1.
func TestHighTemperatureExpansion(t *testing.T) {
	shapes := map[string][]lattice.Point{
		"edge":     lattice.Line(lattice.Point{}, 2),
		"triangle": {{Q: 0, R: 0}, {Q: 1, R: 0}, {Q: 0, R: 1}},
		"hexagon":  lattice.Hexagon(lattice.Point{}, 1),
		"line5":    lattice.Line(lattice.Point{}, 5),
		"spiral10": lattice.Spiral(lattice.Point{}, 10),
	}
	gammas := []float64{0.8, 79.0 / 81.0, 1.0, 81.0 / 79.0, 2, 5.66}
	for name, pts := range shapes {
		cfg := psys.New()
		for _, p := range pts {
			if err := cfg.Place(p, 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, gamma := range gammas {
			brute, err := ising.PartitionBrute(cfg, gamma)
			if err != nil {
				t.Fatal(err)
			}
			ht, err := ising.PartitionHT(cfg, gamma)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(brute-ht)/brute > 1e-10 {
				t.Errorf("%s γ=%v: brute %v != HT %v", name, gamma, brute, ht)
			}
		}
	}
}

func TestPartitionSizeLimits(t *testing.T) {
	cfg := psys.New()
	for _, p := range lattice.Spiral(lattice.Point{}, 30) {
		if err := cfg.Place(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ising.PartitionBrute(cfg, 2); err != ising.ErrTooLarge {
		t.Fatalf("oversized brute: %v", err)
	}
	if _, err := ising.PartitionHT(cfg, 2); err != ising.ErrTooLarge {
		t.Fatalf("oversized HT: %v", err)
	}
}

func TestEdgesMatchesConfigCount(t *testing.T) {
	cfg := hexShape(t, 2, 2)
	if got := len(ising.Edges(cfg)); got != cfg.Edges() {
		t.Fatalf("Edges() returned %d, config says %d", got, cfg.Edges())
	}
}

// TestKawasakiAgreesWithEnumerateWeights cross-checks the γ^{−h} weights
// of the Kawasaki model's Energy against the enumerate package's λ^e·γ^a
// form: on a fixed shape they induce the same distribution (e is constant,
// a = e − h).
func TestKawasakiAgreesWithEnumerateWeights(t *testing.T) {
	cfg := hexShape(t, 1, 2)
	other := cfg.Clone()
	// Canonical points 2 and 3 are adjacent and end the two color runs, so
	// the swap changes h.
	pts := cfg.Points()
	if err := other.ApplySwap(pts[2], pts[3]); err != nil || other.HetEdges() == cfg.HetEdges() {
		t.Fatalf("swap setup: %v, h %d → %d", err, cfg.HetEdges(), other.HetEdges())
	}
	gamma := 3.0
	w1, _ := enumerate.Weights([]*psys.Config{cfg, other}, 1, gamma)
	ratioLemma9 := w1[0] / w1[1]
	ratioHT := math.Pow(gamma, -float64(cfg.HetEdges())) / math.Pow(gamma, -float64(other.HetEdges()))
	if math.Abs(ratioLemma9-ratioHT)/ratioHT > 1e-12 {
		t.Fatalf("weight ratios disagree: %v vs %v", ratioLemma9, ratioHT)
	}
	coup := []float64{gamma}
	ratioModel := math.Exp(ising.Kawasaki.Energy(other, coup) - ising.Kawasaki.Energy(cfg, coup))
	if math.Abs(ratioLemma9-ratioModel)/ratioModel > 1e-12 {
		t.Fatalf("model weight ratio %v, enumerate %v", ratioModel, ratioLemma9)
	}
}

func BenchmarkKawasakiStep(b *testing.B) {
	k := kawasaki(b, hexShape(b, 3, 2), 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}
