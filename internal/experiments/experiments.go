// Package experiments implements the paper's evaluation: one function per
// figure, table or quantitative claim, shared by the benchmark harness
// (bench_test.go) and the command-line tools (cmd/...). Each function
// returns structured rows so callers can print, assert on, or re-plot them.
//
// The experiment ↔ paper mapping is recorded in DESIGN.md (E1–E14) and the
// measured outcomes in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"math"

	"sops/internal/core"
	"sops/internal/ising"
	"sops/internal/lattice"
	"sops/internal/metrics"
	"sops/internal/psys"
	"sops/internal/stats"
	"sops/internal/viz"
)

// Figure2Checkpoints are the iteration counts at which the paper's Figure 2
// shows the 100-particle system (0; 50,000; 1,050,000; 17,050,000;
// 68,250,000).
var Figure2Checkpoints = []uint64{0, 50_000, 1_050_000, 17_050_000, 68_250_000}

// EvolutionPoint is one Figure 2 snapshot.
type EvolutionPoint struct {
	Steps uint64
	Snap  metrics.Snapshot
	ASCII string
}

// Figure2 reproduces the paper's Figure 2: a 2-heterogeneous system of n
// particles (half of each color) from an arbitrary (random line) initial
// configuration under λ and γ, capturing metrics and a rendering at each
// checkpoint. Checkpoints must be nondecreasing.
func Figure2(n int, lambda, gamma float64, checkpoints []uint64, seed uint64) ([]EvolutionPoint, error) {
	cfg, err := core.Initial(core.LayoutLine, core.Bichromatic(n), seed)
	if err != nil {
		return nil, err
	}
	ch, err := core.New(cfg, core.Params{Lambda: lambda, Gamma: gamma, Seed: seed})
	if err != nil {
		return nil, err
	}
	th := metrics.DefaultThresholds()
	out := make([]EvolutionPoint, 0, len(checkpoints))
	var done uint64
	for _, cp := range checkpoints {
		if cp < done {
			return nil, fmt.Errorf("experiments: checkpoints must be nondecreasing (%d after %d)", cp, done)
		}
		ch.Run(cp - done)
		done = cp
		out = append(out, EvolutionPoint{
			Steps: cp,
			Snap:  metrics.Capture(ch.Config(), cp, th),
			ASCII: viz.ASCII(ch.Config()),
		})
	}
	return out, nil
}

// DefaultPhaseGrid returns (λ, γ) values spanning the four phases of
// Figure 3, including the paper's showcase point λ = γ = 4. Expanded
// phases require a small perimeter bias λγ (the stationary weight is
// (λγ)^{−p}·γ^{−h}), so expanded-separated appears at λ < 1 with γ large.
func DefaultPhaseGrid() (lambdas, gammas []float64) {
	return []float64{0.25, 1.05, 4, 6}, []float64{1, 1.05, 4, 6}
}

// AblationResult reports the swap-move ablation (§3.2): iterations needed
// to reach a segregation target with and without swap moves.
type AblationResult struct {
	Target        float64
	WithSwaps     uint64 // 0 means the target was not reached within budget
	WithoutSwaps  uint64
	BudgetPerCase uint64
}

// SwapAblation measures time-to-separation with swaps enabled and
// disabled, reproducing the claim that separation still occurs without
// swaps but takes much longer. The segregation index is checked every
// checkEvery iterations.
func SwapAblation(n int, lambda, gamma, target float64, budget, checkEvery, seed uint64) (AblationResult, error) {
	res := AblationResult{Target: target, BudgetPerCase: budget}
	for _, disable := range []bool{false, true} {
		cfg, err := core.Initial(core.LayoutSpiral, core.Bichromatic(n), seed)
		if err != nil {
			return res, err
		}
		ch, err := core.New(cfg, core.Params{Lambda: lambda, Gamma: gamma, DisableSwaps: disable, Seed: seed})
		if err != nil {
			return res, err
		}
		reached := uint64(0)
		for done := uint64(0); done < budget; {
			batch := min(max(checkEvery, 1), budget-done)
			ch.Run(batch)
			done += batch
			if metrics.SegregationIndex(ch.Config()) >= target {
				reached = done
				break
			}
		}
		if disable {
			res.WithoutSwaps = reached
		} else {
			res.WithSwaps = reached
		}
	}
	return res, nil
}

// Lemma2Row is one row of the minimum-perimeter table (E4).
type Lemma2Row struct {
	N     int
	PMin  int
	Bound float64 // 2√3·√n
}

// Lemma2Table tabulates p_min(n) against the Lemma 2 bound for the given
// particle counts.
func Lemma2Table(ns []int) []Lemma2Row {
	out := make([]Lemma2Row, len(ns))
	for i, n := range ns {
		out[i] = Lemma2Row{
			N:     n,
			PMin:  psys.MinPerimeter(n),
			Bound: 2 * math.Sqrt(3) * math.Sqrt(float64(n)),
		}
	}
	return out
}

// FrequencyResult reports how often sampled configurations satisfy a
// property at quasi-stationarity, with a Wilson 95% confidence interval.
type FrequencyResult struct {
	Lambda, Gamma float64
	Hits, Samples int
	Freq          float64
	Lo, Hi        float64
}

// sampleFrequency burns in a chain via run, then takes samples samples gap
// steps apart, counting how many satisfy hit. Cancellation propagates from
// run (pass a chain's RunContext).
func sampleFrequency(ctx context.Context, run func(context.Context, uint64) (uint64, error), hit func() bool, burnin, gap uint64, samples int) (int, error) {
	if _, err := run(ctx, burnin); err != nil {
		return 0, err
	}
	hits := 0
	for s := 0; s < samples; s++ {
		if _, err := run(ctx, gap); err != nil {
			return hits, err
		}
		if hit() {
			hits++
		}
	}
	return hits, nil
}

// frequencyResult assembles a FrequencyResult with its Wilson interval.
func frequencyResult(lambda, gamma float64, hits, samples int) FrequencyResult {
	lo, hi := stats.WilsonCI(hits, samples)
	return FrequencyResult{
		Lambda: lambda, Gamma: gamma,
		Hits: hits, Samples: samples,
		Freq: float64(hits) / float64(samples),
		Lo:   lo, Hi: hi,
	}
}

// CompressionFrequencyContext estimates Pr[α-compressed] under the chain
// at (λ, γ): burn in, then sample every gap iterations (E6, E8, E14). The
// underlying chain polls ctx during both burn-in and sampling.
func CompressionFrequencyContext(ctx context.Context, n int, lambda, gamma, alpha float64, burnin, gap uint64, samples int, seed uint64) (FrequencyResult, error) {
	cfg, err := core.Initial(core.LayoutLine, core.Bichromatic(n), seed)
	if err != nil {
		return FrequencyResult{}, err
	}
	ch, err := core.New(cfg, core.Params{Lambda: lambda, Gamma: gamma, Seed: seed})
	if err != nil {
		return FrequencyResult{}, err
	}
	hits, err := sampleFrequency(ctx, ch.RunContext,
		func() bool { return metrics.IsCompressed(ch.Config(), alpha) },
		burnin, gap, samples)
	if err != nil {
		return FrequencyResult{}, err
	}
	return frequencyResult(lambda, gamma, hits, samples), nil
}

// MonochromaticCompressionFrequencyContext is the PODC '16 compression
// baseline: a single color class, γ = 1, sweeping λ across the provable
// threshold 2(2+√2) ≈ 6.83 (E14). The chain polls ctx throughout.
func MonochromaticCompressionFrequencyContext(ctx context.Context, n int, lambda, alpha float64, burnin, gap uint64, samples int, seed uint64) (FrequencyResult, error) {
	cfg, err := core.Initial(core.LayoutLine, []int{n}, seed)
	if err != nil {
		return FrequencyResult{}, err
	}
	ch, err := core.New(cfg, core.Params{Lambda: lambda, Gamma: 1, Seed: seed})
	if err != nil {
		return FrequencyResult{}, err
	}
	hits, err := sampleFrequency(ctx, ch.RunContext,
		func() bool { return metrics.IsCompressed(ch.Config(), alpha) },
		burnin, gap, samples)
	if err != nil {
		return FrequencyResult{}, err
	}
	return frequencyResult(lambda, 1, hits, samples), nil
}

// FixedShapeSeparationContext estimates Pr[(β,δ)-separated] under the
// fixed-boundary distribution π_P ∝ γ^{−h} on a hexagonal shape — the
// setting of Theorems 14 (large γ) and 16 (γ near one). The shape holds
// 3·radius²+3·radius+1 particles, half of each color, and π_P is sampled
// by chain M restricted to swap moves: core.Chain running the
// ising.Kawasaki model. The chain polls ctx during both burn-in and
// sampling.
func FixedShapeSeparationContext(ctx context.Context, radius int, gamma, beta, delta float64, burnin, gap uint64, samples int, seed uint64) (FrequencyResult, error) {
	pts := lattice.Hexagon(lattice.Point{}, radius)
	lattice.SortPoints(pts)
	cfg := psys.New()
	for i, p := range pts {
		col := psys.Color(0)
		if i >= len(pts)/2 {
			col = 1
		}
		if err := cfg.Place(p, col); err != nil {
			return FrequencyResult{}, err
		}
	}
	ch, err := core.NewWithModel(cfg, core.Params{Seed: seed}, ising.Kawasaki, []float64{gamma})
	if err != nil {
		return FrequencyResult{}, err
	}
	hits, err := sampleFrequency(ctx, ch.RunContext,
		func() bool { return metrics.IsSeparated(ch.Config(), beta, delta) },
		burnin, gap, samples)
	if err != nil {
		return FrequencyResult{}, err
	}
	return frequencyResult(0, gamma, hits, samples), nil
}

// MultiColorResult reports the k-color extension (E12, §5).
type MultiColorResult struct {
	Colors      int
	Snap        metrics.Snapshot
	ClusterFrac []float64 // largest-cluster fraction per color
}

// MultiColor runs the chain on k color classes of perColor particles each
// and reports separation order parameters, supporting the paper's remark
// that the algorithm performs well in practice for k > 2.
func MultiColor(k, perColor int, lambda, gamma float64, steps, seed uint64) (MultiColorResult, error) {
	counts := make([]int, k)
	for i := range counts {
		counts[i] = perColor
	}
	cfg, err := core.Initial(core.LayoutSpiral, counts, seed)
	if err != nil {
		return MultiColorResult{}, err
	}
	ch, err := core.New(cfg, core.Params{Lambda: lambda, Gamma: gamma, Seed: seed})
	if err != nil {
		return MultiColorResult{}, err
	}
	ch.Run(steps)
	res := MultiColorResult{
		Colors: k,
		Snap:   metrics.Capture(ch.Config(), steps, metrics.DefaultThresholds()),
	}
	for c := 0; c < k; c++ {
		res.ClusterFrac = append(res.ClusterFrac, metrics.LargestClusterFraction(ch.Config(), psys.Color(c)))
	}
	return res, nil
}
