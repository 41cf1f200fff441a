// Command figures regenerates every figure and table of the paper into an
// output directory: Figure 2 (time evolution, ASCII + SVG + metric series),
// Figure 3 (phase diagram), the Lemma 2 perimeter table, the swap-move
// ablation, and the theorem-regime frequency tables (compression and
// fixed-shape separation/integration).
//
// By default workloads are scaled down to finish in a few minutes; pass
// -full for the paper-scale iteration counts (tens of minutes).
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"sops"
	"sops/internal/atomicio"
	"sops/internal/core"
	"sops/internal/enumerate"
	"sops/internal/experiments"
	"sops/internal/ising"
	"sops/internal/lattice"
	"sops/internal/metrics"
	"sops/internal/polymer"
	"sops/internal/psys"
	"sops/internal/runner"
	"sops/internal/schelling"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		outDir  = flag.String("out", "out", "output directory")
		full    = flag.Bool("full", false, "paper-scale workloads (much slower)")
		seed    = flag.Uint64("seed", 1, "random seed")
		workers = flag.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	// Ctrl-C cancels the in-flight sweep promptly instead of waiting for
	// the current figure to finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	scale := uint64(10) // scaled-down divisor
	if *full {
		scale = 1
	}

	if err := figure2(*outDir, scale, *seed); err != nil {
		return fmt.Errorf("figure 2: %w", err)
	}
	if err := figure3(ctx, *outDir, scale, *seed, *workers); err != nil {
		return fmt.Errorf("figure 3: %w", err)
	}
	if err := lemma2(*outDir); err != nil {
		return fmt.Errorf("lemma 2: %w", err)
	}
	if err := ablation(*outDir, scale, *seed); err != nil {
		return fmt.Errorf("ablation: %w", err)
	}
	if err := theoremTables(ctx, *outDir, scale, *seed, *workers); err != nil {
		return fmt.Errorf("theorem tables: %w", err)
	}
	if err := analysis(*outDir); err != nil {
		return fmt.Errorf("analysis: %w", err)
	}
	if err := schellingBaseline(*outDir, *seed); err != nil {
		return fmt.Errorf("schelling baseline: %w", err)
	}
	fmt.Println("all figures regenerated into", *outDir)
	return nil
}

func figure2(outDir string, scale, seed uint64) error {
	fmt.Println("figure 2: time evolution (λ=4, γ=4, n=100)...")
	checkpoints := make([]uint64, len(experiments.Figure2Checkpoints))
	for i, cp := range experiments.Figure2Checkpoints {
		checkpoints[i] = cp / scale
	}
	points, err := experiments.Figure2(100, 4, 4, checkpoints, seed)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: n=100, λ=4, γ=4, checkpoints scaled by 1/%d\n\n", scale)
	fmt.Fprintf(&b, "%12s %6s %7s %5s %8s %8s  %s\n", "steps", "perim", "alpha", "het", "segr", "cluster", "phase")
	for _, p := range points {
		fmt.Fprintf(&b, "%12d %6d %7.3f %5d %8.3f %8.3f  %s\n",
			p.Steps, p.Snap.Perimeter, p.Snap.Alpha, p.Snap.HetEdges,
			p.Snap.Segregation, p.Snap.LargestFrac, p.Snap.Phase)
	}
	b.WriteString("\n")
	for _, p := range points {
		fmt.Fprintf(&b, "--- after %d iterations ---\n%s\n", p.Steps, p.ASCII)
	}
	if err := atomicio.WriteFile(filepath.Join(outDir, "figure2.txt"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	// Re-run to emit SVG snapshots (cheap at scaled checkpoints). The same
	// pass records the checkpoint states into a machine-readable trace: each
	// segment samples once at its end (SampleEvery 0), so the recorder holds
	// exactly the figure's time series.
	sys, err := sops.New(sops.Options{
		Counts: []int{50, 50}, Layout: sops.LayoutLine,
		Lambda: 4, Gamma: 4, Seed: seed,
	})
	if err != nil {
		return err
	}
	rec := sops.NewRecorder(len(checkpoints), 0)
	var done uint64
	for i, cp := range checkpoints {
		if _, err := sys.Run(context.Background(), sops.RunSpec{
			Steps:     cp - done,
			Telemetry: &sops.Telemetry{Recorder: rec},
		}); err != nil {
			return err
		}
		done = cp
		f, err := atomicio.Create(filepath.Join(outDir, fmt.Sprintf("figure2_%d.svg", i)))
		if err != nil {
			return err
		}
		if err := sys.RenderSVG(f); err != nil {
			f.Abort()
			return err
		}
		if err := f.Commit(); err != nil {
			return err
		}
	}
	// The trace ships in both the CSV interchange form and the packed
	// binary form (E27 compares their sizes; sops -convert maps between
	// them).
	if err := rec.WriteFile(filepath.Join(outDir, "figure2_trace.csv")); err != nil {
		return err
	}
	return rec.WriteFile(filepath.Join(outDir, "figure2_trace.sbt"))
}

func figure3(ctx context.Context, outDir string, scale, seed uint64, workers int) error {
	fmt.Println("figure 3: phase diagram...")
	ls, gs := experiments.DefaultPhaseGrid()
	cells, err := sops.Sweep(ctx, sops.SweepSpec{
		Lambdas: ls, Gammas: gs,
		Counts: sops.Bichromatic(100), Layout: sops.LayoutLine,
		Steps: 50_000_000 / scale, Seed: seed, Workers: workers,
	})
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: n=100, %d iterations per cell\n\n", 50_000_000/scale)
	fmt.Fprintf(&b, "%8s %8s %7s %7s %8s  %s\n", "lambda", "gamma", "alpha", "het", "segr", "phase")
	for _, c := range cells {
		fmt.Fprintf(&b, "%8.3g %8.3g %7.3f %7d %8.3f  %s\n",
			c.Lambda, c.Gamma, c.Snap.Alpha, c.Snap.HetEdges, c.Snap.Segregation, c.Snap.Phase)
	}
	return atomicio.WriteFile(filepath.Join(outDir, "figure3.txt"), []byte(b.String()), 0o644)
}

func lemma2(outDir string) error {
	fmt.Println("lemma 2: minimum-perimeter table...")
	rows := experiments.Lemma2Table([]int{1, 2, 3, 7, 19, 37, 61, 100, 169, 271, 397, 547, 1000, 2000, 4000})
	var b strings.Builder
	b.WriteString("Lemma 2: p_min(n) vs the bound 2·sqrt(3)·sqrt(n)\n\n")
	fmt.Fprintf(&b, "%8s %8s %10s\n", "n", "p_min", "bound")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %8d %10.2f\n", r.N, r.PMin, r.Bound)
	}
	return atomicio.WriteFile(filepath.Join(outDir, "lemma2.txt"), []byte(b.String()), 0o644)
}

func ablation(outDir string, scale, seed uint64) error {
	fmt.Println("swap-move ablation...")
	res, err := experiments.SwapAblation(100, 4, 4, 0.6, 60_000_000/scale, 50_000, seed)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Swap ablation: n=100, λ=4, γ=4, segregation target %.2f, budget %d\n\n", res.Target, res.BudgetPerCase)
	fmt.Fprintf(&b, "with swaps:    reached at %d iterations\n", res.WithSwaps)
	if res.WithoutSwaps == 0 {
		fmt.Fprintf(&b, "without swaps: not reached within budget\n")
	} else {
		fmt.Fprintf(&b, "without swaps: reached at %d iterations (%.1fx slower)\n",
			res.WithoutSwaps, float64(res.WithoutSwaps)/float64(res.WithSwaps))
	}
	return atomicio.WriteFile(filepath.Join(outDir, "ablation.txt"), []byte(b.String()), 0o644)
}

func theoremTables(ctx context.Context, outDir string, scale, seed uint64, workers int) error {
	fmt.Println("theorem-regime tables...")
	var b strings.Builder

	// Each point list is an independent sweep: shard it across the engine's
	// workers and print in input order, identical to the serial output.
	b.WriteString("Theorem 13 / 15 regimes: Pr[3-compressed] at quasi-stationarity, n=60\n\n")
	fmt.Fprintf(&b, "%8s %8s %8s %18s\n", "lambda", "gamma", "freq", "95% CI")
	type lg struct{ l, g float64 }
	points, err := runner.Sweep(ctx, []lg{{4, 6}, {2, 6}, {4, 1.02}, {6, 1.02}, {1, 1}},
		runner.Options{Workers: workers, Seed: seed},
		func(ctx context.Context, p lg, _ uint64) (experiments.FrequencyResult, error) {
			return experiments.CompressionFrequencyContext(ctx, 60, p.l, p.g, 3, 4_000_000/scale, 10_000, 50, seed)
		})
	if err != nil {
		return err
	}
	for _, r := range points {
		res := r.Value
		fmt.Fprintf(&b, "%8.3g %8.3g %8.2f [%6.2f, %6.2f]\n", res.Lambda, res.Gamma, res.Freq, res.Lo, res.Hi)
	}

	b.WriteString("\nPODC'16 compression baseline (monochromatic, γ=1): Pr[3-compressed], n=60\n\n")
	fmt.Fprintf(&b, "%8s %8s %18s\n", "lambda", "freq", "95% CI")
	mono, err := runner.Sweep(ctx, []float64{2, 4, 6, 8},
		runner.Options{Workers: workers, Seed: seed},
		func(ctx context.Context, l float64, _ uint64) (experiments.FrequencyResult, error) {
			return experiments.MonochromaticCompressionFrequencyContext(ctx, 60, l, 3, 4_000_000/scale, 10_000, 50, seed)
		})
	if err != nil {
		return err
	}
	for _, r := range mono {
		fmt.Fprintf(&b, "%8.3g %8.2f [%6.2f, %6.2f]\n", r.Value.Lambda, r.Value.Freq, r.Value.Lo, r.Value.Hi)
	}

	b.WriteString("\nTheorem 14 / 16 regimes: Pr[(4,0.25)-separated] under π_P on a fixed hexagon (r=3, n=37)\n\n")
	fmt.Fprintf(&b, "%8s %8s %18s\n", "gamma", "freq", "95% CI")
	hex, err := runner.Sweep(ctx, []float64{81.0 / 79.0, 1.5, 2, 3, 4, 6},
		runner.Options{Workers: workers, Seed: seed},
		func(ctx context.Context, g float64, _ uint64) (experiments.FrequencyResult, error) {
			return experiments.FixedShapeSeparationContext(ctx, 3, g, 4, 0.25, 4_000_000/scale, 20_000, 40, seed)
		})
	if err != nil {
		return err
	}
	for _, r := range hex {
		fmt.Fprintf(&b, "%8.4g %8.2f [%6.2f, %6.2f]\n", r.Value.Gamma, r.Value.Freq, r.Value.Lo, r.Value.Hi)
	}

	b.WriteString("\nMulti-color extension (§5): k colors, 15 particles each, λ=γ=4\n\n")
	fmt.Fprintf(&b, "%4s %8s %12s\n", "k", "segr", "meanCluster")
	for _, k := range []int{2, 3, 4} {
		res, err := experiments.MultiColor(k, 15, 4, 4, 30_000_000/scale, seed)
		if err != nil {
			return err
		}
		mean := 0.0
		for _, f := range res.ClusterFrac {
			mean += f
		}
		mean /= float64(k)
		fmt.Fprintf(&b, "%4d %8.3f %12.3f\n", k, res.Snap.Segregation, mean)
	}

	return atomicio.WriteFile(filepath.Join(outDir, "theorems.txt"), []byte(b.String()), 0o644)
}

// analysis writes the theory-machinery artifacts: the Lemma 1 perimeter
// census, exact spectral gaps versus γ, the Kotecký–Preiss condition, the
// Theorem 11 volume/surface bracket, and the high-temperature identity.
func analysis(outDir string) error {
	fmt.Println("analysis: census, spectral gaps, cluster expansion...")
	var b strings.Builder

	b.WriteString("Lemma 1 perimeter census: connected hole-free shapes of n particles by perimeter\n")
	b.WriteString("(count^(1/perimeter) stays below 2+sqrt(2) ≈ 3.414)\n\n")
	for _, n := range []int{4, 5, 6, 7} {
		fmt.Fprintf(&b, "n=%d:\n%8s %8s %8s\n", n, "perim", "count", "root")
		for _, r := range enumerate.CensusTable(n) {
			fmt.Fprintf(&b, "%8d %8d %8.3f\n", r.Perimeter, r.Count, r.Root)
		}
		b.WriteString("\n")
	}

	b.WriteString("Spectral gap of M (exact, 264-state bichromatic 4-particle space) vs γ at λ=2:\n")
	b.WriteString("(the gap shrinks as γ grows: slower mixing, §5)\n\n")
	fmt.Fprintf(&b, "%8s %12s %14s %12s\n", "gamma", "gap", "relaxation", "t_mix(1/4)")
	configs, err := enumerate.Configs([]int{2, 2}, false)
	if err != nil {
		return err
	}
	for _, gamma := range []float64{1, 2, 4, 8, 16} {
		m, err := enumerate.TransitionMatrix(configs, 2, gamma, true)
		if err != nil {
			return err
		}
		gap, err := m.SpectralGap(2, gamma)
		if err != nil {
			return err
		}
		tmix, mixed := m.MixingTime(2, gamma, 0.25, 1_000_000)
		mark := ""
		if !mixed {
			mark = "+"
		}
		fmt.Fprintf(&b, "%8.3g %12.6f %14.1f %11d%s\n", gamma, gap, 1/gap, tmix, mark)
	}

	b.WriteString("\nKotecký–Preiss condition (Theorem 11, Eq. 3), per-edge totals vs c:\n\n")
	fmt.Fprintf(&b, "%-28s %10s %10s %10s %10s  %s\n", "model", "c", "head", "tail", "total", "holds")
	type kpCase struct {
		name string
		m    polymer.Model
		c    float64
	}
	for _, tc := range []kpCase{
		{"loops γ=8 (maxLen 8)", polymer.LoopModel(8, 8), 0.05},
		{"loops γ=5.66 (maxLen 8)", polymer.LoopModel(5.66, 8), 0.05},
		{"loops γ=4 (maxLen 6)", polymer.LoopModel(4, 6), 0.05},
		{"even γ=81/79 (maxLen 6)", polymer.EvenModel(81.0/79.0, 6), 0.01},
		{"even γ=79/81 (maxLen 6)", polymer.EvenModel(79.0/81.0, 6), 0.01},
		{"even γ=3 (maxLen 6)", polymer.EvenModel(3, 6), 0.01},
	} {
		rep := polymer.CheckKP(tc.m, tc.c)
		fmt.Fprintf(&b, "%-28s %10.3g %10.4g %10.4g %10.4g  %v\n",
			tc.name, rep.C, rep.Head, rep.Tail, rep.Total, rep.Satisfied)
	}

	b.WriteString("\nTheorem 11 volume/surface bracket on hexagonal regions (loops, γ=8, c=0.05):\n\n")
	lm := polymer.LoopModel(8, 4)
	psi := polymer.PsiPerEdge(lm, 3)
	fmt.Fprintf(&b, "ψ = %.6f\n", psi)
	fmt.Fprintf(&b, "%4s %6s %6s %12s %12s %12s\n", "r", "|Λ|", "|∂Λ|", "lower", "ln Ξ", "upper")
	for r := 1; r <= 2; r++ {
		region := polymer.HexRegion(r)
		pool := lm.Enumerate(region)
		logXi := polymer.LogXiExact(lm, pool)
		vol := psi * float64(len(region))
		surf := 0.05 * float64(len(region.SurfaceEdges()))
		fmt.Fprintf(&b, "%4d %6d %6d %12.6f %12.6f %12.6f\n",
			r, len(region), len(region.SurfaceEdges()), vol-surf, logXi, vol+surf)
	}

	b.WriteString("\nHigh-temperature expansion identity on the 7-vertex hexagon (relative errors):\n\n")
	shape := psys.New()
	for _, p := range lattice.Hexagon(lattice.Point{}, 1) {
		if err := shape.Place(p, 0); err != nil {
			return err
		}
	}
	fmt.Fprintf(&b, "%10s %18s %18s %12s\n", "gamma", "brute force", "HT expansion", "rel err")
	for _, gamma := range []float64{79.0 / 81.0, 81.0 / 79.0, 2, 5.66} {
		brute, err := ising.PartitionBrute(shape, gamma)
		if err != nil {
			return err
		}
		ht, err := ising.PartitionHT(shape, gamma)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%10.4g %18.8g %18.8g %12.2e\n", gamma, brute, ht, math.Abs(brute-ht)/brute)
	}

	return atomicio.WriteFile(filepath.Join(outDir, "analysis.txt"), []byte(b.String()), 0o644)
}

// schellingBaseline writes the related-work baseline comparison: Schelling
// segregation versus the particle-system chain on comparable workloads.
func schellingBaseline(outDir string, seed uint64) error {
	fmt.Println("schelling baseline...")
	var b strings.Builder
	b.WriteString("Schelling baseline (radius-6 hexagon, 40+40 agents) vs particle system (n=80, λ=4):\n\n")
	fmt.Fprintf(&b, "%-34s %10s %10s\n", "model", "segr", "happy")
	for _, tol := range []float64{0.34, 0.5, 0.67} {
		m, err := schelling.New(6, []int{40, 40}, tol, seed)
		if err != nil {
			return err
		}
		m.Run(500_000)
		cfg, err := m.Config()
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "schelling tolerance %.2f            %10.3f %10.3f\n",
			tol, metrics.SegregationIndex(cfg), m.HappyFraction())
	}
	for _, gamma := range []float64{1.05, 4} {
		cfg, err := core.Initial(core.LayoutSpiral, core.Bichromatic(80), seed)
		if err != nil {
			return err
		}
		ch, err := core.New(cfg, core.Params{Lambda: 4, Gamma: gamma, Seed: seed})
		if err != nil {
			return err
		}
		ch.Run(3_000_000)
		fmt.Fprintf(&b, "particle system γ=%-4.3g             %10.3f %10s\n",
			gamma, metrics.SegregationIndex(ch.Config()), "n/a")
	}
	b.WriteString("\nSchelling relocates unhappy agents to random vacancies (shape not preserved);\n")
	b.WriteString("the particle system separates under strictly local moves while staying connected.\n")
	return atomicio.WriteFile(filepath.Join(outDir, "schelling.txt"), []byte(b.String()), 0o644)
}
