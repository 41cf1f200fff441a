package experiments

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestFigure2SmallScale(t *testing.T) {
	pts, err := Figure2(40, 4, 4, []uint64{0, 10_000, 400_000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d checkpoints", len(pts))
	}
	if pts[0].Steps != 0 || pts[0].Snap.N != 40 {
		t.Fatalf("first checkpoint %+v", pts[0].Snap)
	}
	// The line start has maximal perimeter; by 400k steps at λ=γ=4 the
	// system must have compressed and separated substantially.
	first, last := pts[0].Snap, pts[2].Snap
	if last.Perimeter >= first.Perimeter/2 {
		t.Fatalf("perimeter %d -> %d: no compression", first.Perimeter, last.Perimeter)
	}
	if last.Segregation <= first.Segregation {
		t.Fatalf("segregation %v -> %v: no separation", first.Segregation, last.Segregation)
	}
	if pts[2].ASCII == "" {
		t.Fatal("missing rendering")
	}
}

func TestFigure2RejectsDecreasingCheckpoints(t *testing.T) {
	if _, err := Figure2(10, 4, 4, []uint64{100, 50}, 1); err == nil {
		t.Fatal("decreasing checkpoints accepted")
	}
}

func TestSwapAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	res, err := SwapAblation(40, 4, 4, 0.5, 3_000_000, 20_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.WithSwaps == 0 {
		t.Fatal("with swaps: target never reached")
	}
	if res.WithoutSwaps != 0 && res.WithoutSwaps < res.WithSwaps {
		t.Fatalf("swaps did not help: with=%d without=%d", res.WithSwaps, res.WithoutSwaps)
	}
}

func TestLemma2Table(t *testing.T) {
	rows := Lemma2Table([]int{1, 7, 19, 37, 100, 500})
	for _, r := range rows {
		if float64(r.PMin) > r.Bound {
			t.Fatalf("n=%d: p_min %d exceeds bound %v", r.N, r.PMin, r.Bound)
		}
	}
	if rows[1].PMin != 6 {
		t.Fatalf("p_min(7) = %d, want 6", rows[1].PMin)
	}
}

func TestCompressionFrequencyRegimes(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	// λγ = 16 ≫ 6.83: compression should hold at nearly every sample.
	strong, err := CompressionFrequencyContext(context.Background(), 40, 4, 4, 3, 1_000_000, 5_000, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	if strong.Freq < 0.9 {
		t.Fatalf("strong-bias compression frequency %v", strong.Freq)
	}
	// λ = γ = 1: uniform over configurations; expansion dominates by
	// entropy and α=3 compression is rare.
	weak, err := CompressionFrequencyContext(context.Background(), 40, 1, 1, 3, 1_000_000, 5_000, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if weak.Freq > strong.Freq-0.3 {
		t.Fatalf("weak-bias compression frequency %v vs strong %v", weak.Freq, strong.Freq)
	}
	if strong.Lo > strong.Freq || strong.Hi < strong.Freq {
		t.Fatalf("CI does not bracket frequency: %+v", strong)
	}
}

func TestMonochromaticBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	res, err := MonochromaticCompressionFrequencyContext(context.Background(), 40, 6, 3, 1_000_000, 5_000, 30, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Freq < 0.9 {
		t.Fatalf("λ=6 monochromatic compression frequency %v", res.Freq)
	}
	if res.Gamma != 1 {
		t.Fatal("baseline must run at γ=1")
	}
}

func TestFixedShapeSeparationRegimes(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	// Theorem 14 regime: large γ on a fixed compressed shape separates.
	sep, err := FixedShapeSeparationContext(context.Background(), 3, 6, 4, 0.25, 2_000_000, 10_000, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 16 regime: γ in (79/81, 81/79) stays integrated.
	integ, err := FixedShapeSeparationContext(context.Background(), 3, 81.0/79.0, 4, 0.25, 2_000_000, 10_000, 30, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sep.Freq < 0.8 {
		t.Fatalf("γ=6 separation frequency %v", sep.Freq)
	}
	if integ.Freq > 0.2 {
		t.Fatalf("γ≈1 separation frequency %v", integ.Freq)
	}
}

func TestMultiColor(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	res, err := MultiColor(4, 15, 4, 4, 3_000_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Colors != 4 || len(res.ClusterFrac) != 4 {
		t.Fatalf("result shape %+v", res)
	}
	mean := 0.0
	for _, f := range res.ClusterFrac {
		mean += f
	}
	mean /= 4
	if mean < 0.6 {
		t.Fatalf("mean largest-cluster fraction %v: k=4 separation failed", mean)
	}
	if math.IsNaN(res.Snap.Segregation) || res.Snap.Segregation < 0.4 {
		t.Fatalf("k=4 segregation %v", res.Snap.Segregation)
	}
}

func TestDefaultPhaseGrid(t *testing.T) {
	ls, gs := DefaultPhaseGrid()
	if len(ls) == 0 || len(gs) == 0 {
		t.Fatal("empty grid")
	}
	for _, l := range ls {
		if l <= 0 {
			t.Fatal("non-positive lambda in grid")
		}
	}
}

// TestFrequencyCancellation: every frequency experiment returns ctx's
// error when its context is cancelled, instead of running out its budget.
func TestFrequencyCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func() (FrequencyResult, error){
		"compression": func() (FrequencyResult, error) {
			return CompressionFrequencyContext(ctx, 40, 4, 4, 3, 1<<40, 1, 1, 1)
		},
		"monochromatic": func() (FrequencyResult, error) {
			return MonochromaticCompressionFrequencyContext(ctx, 40, 4, 3, 1<<40, 1, 1, 1)
		},
		"fixed-shape": func() (FrequencyResult, error) {
			return FixedShapeSeparationContext(ctx, 3, 4, 4, 0.25, 1<<40, 1, 1, 1)
		},
	} {
		if _, err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v", name, err)
		}
	}
}
