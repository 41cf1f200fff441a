// Benchmark harness: one benchmark per paper artifact (figures, tables and
// quantitative claims), E1–E14 in DESIGN.md. Each benchmark runs a
// scaled-down version of the corresponding experiment and reports its key
// quantities as custom benchmark metrics, so `go test -bench=.` regenerates
// the paper's evaluation end to end. cmd/figures produces the full-size
// artifacts.
package sops_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"sops"
	"sops/internal/amoebot"
	"sops/internal/core"
	"sops/internal/enumerate"
	"sops/internal/experiments"
	"sops/internal/ising"
	"sops/internal/lattice"
	"sops/internal/metrics"
	"sops/internal/polymer"
	"sops/internal/psys"
	"sops/internal/rng"
	"sops/internal/stats"
	"sops/internal/telemetry"
)

// E21 — the raw chain-step kernel: single iterations of Markov chain M on
// the paper's standard n = 100 bichromatic workload at λ = γ = 4, after a
// burn-in that reaches the compressed steady state. Every experiment in the
// paper is bounded by this kernel. Its time is tracked by the perfbench
// ledger (core.step_ns on the fig2 workload, BENCHMARK.json), and its
// 0 allocs/op by TestChainStepAllocs.
func BenchmarkChainStep(b *testing.B) {
	ch := burnedInChain(b, core.LayoutLine, 100, 4)
	b.ReportAllocs()
	b.ResetTimer()
	stepLoop(b, ch)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}

// E21 — the same kernel at n = 1000, exercising the dense occupancy window
// and the slot list at ten times the paper's n = 100.
func BenchmarkChainStepN1000(b *testing.B) {
	ch := burnedInChain(b, core.LayoutSpiral, 1000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	stepLoop(b, ch)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}

// E21 — the kernel on the large-serial benchmark workload's state: an
// n = 10⁵ bichromatic spiral at λ = γ = 4, burned in. Its 235,225-cell
// window and 400 KB slot list outgrow L2, and most of its proposals are
// same-colour swaps inside the settled blob, which the chain decides from
// the two end cells without gathering the ring.
func BenchmarkChainStepN100000(b *testing.B) {
	ch := burnedInChain(b, core.LayoutSpiral, 100_000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	stepLoop(b, ch)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}

// E21 — the swap-dominated regime of the kernel: a compact spiral blob at
// γ near 1 stays color-mixed, so most proposals land on occupied targets
// and exercise the swap branch (SwapExponent, swap threshold table,
// ApplySwap) rather than the move branch that dominates the λ = γ = 4
// benchmarks above.
func BenchmarkChainStepSwapPath(b *testing.B) {
	ch := burnedInChain(b, core.LayoutSpiral, 100, 1.05)
	b.ReportAllocs()
	b.ResetTimer()
	stepLoop(b, ch)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
	b.StopTimer()
	st := ch.Stats()
	b.ReportMetric(float64(st.Swaps)/float64(st.Steps), "swapFrac")
}

// E26 — the sharded multicore kernel: proposal throughput of the
// tile-store executor at n = 100,000 across worker counts. P2–P8 measure
// scaling, which is only meaningful on a multi-core runner; P1's serial
// overhead is held against the serial chain by the sharded-P1 case of
// BenchmarkPairedOverhead.
func BenchmarkChainStepSharded(b *testing.B) {
	cfg, err := core.Initial(core.LayoutSpiral, core.Bichromatic(100_000), 1)
	if err != nil {
		b.Fatal(err)
	}
	params := core.Params{Lambda: 4, Gamma: 4, Seed: 1}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P%d", workers), func(b *testing.B) {
			sh, err := core.NewSharded(cfg, params, core.ShardedOptions{
				Workers: workers,
				Seed:    uint64(workers),
			})
			if err != nil {
				b.Fatal(err)
			}
			// Warm the tile directory, band partition and worker rng
			// streams before timing.
			if _, err := sh.Run(context.Background(), 200_000); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			pprof.Do(context.Background(), pprof.Labels("benchmark", b.Name()), func(ctx context.Context) {
				if _, err := sh.Run(ctx, uint64(b.N)); err != nil {
					b.Fatal(err)
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
		})
	}
}

// stepLoop runs the timed portion of the chain-step benchmarks under a
// pprof label, so `go test -cpuprofile` output can be filtered to one
// benchmark's samples (`go tool pprof -tagfocus benchmark=...`).
func stepLoop(b *testing.B, ch *core.Chain) {
	pprof.Do(context.Background(), pprof.Labels("benchmark", b.Name()), func(context.Context) {
		for i := 0; i < b.N; i++ {
			ch.Step()
		}
	})
}

// E23/E26 — paired overhead checks. Each case times a base and a variant
// inside one process, so the machine's speed cancels out of the ratio:
//
//   - probe: two same-seed n = 100 line chains at λ = γ = 4, one with a
//     live telemetry probe. Publishing must cost at most 5%, and the two
//     chains must end with equal Stats, so the probe is the only difference.
//   - sharded-P1: the sharded executor with one worker against the serial
//     chain on the same n = 10⁵ spiral. The tile store and epoch
//     bookkeeping may at most double the serial chain's time per proposal.
//
// Run the judged form with at least minJudgedPairs pairs, e.g.
// `go test -run '^$' -bench PairedOverhead -benchtime 21x .`.
func BenchmarkPairedOverhead(b *testing.B) {
	b.Run("probe", func(b *testing.B) {
		const block = 50_000
		base, variant := burnedInChain(b, core.LayoutLine, 100, 4), burnedInChain(b, core.LayoutLine, 100, 4)
		probe := telemetry.NewProbe()
		variant.SetProbe(probe)
		pairedRatio(b, 1.05, func() { base.Run(block) }, func() { variant.Run(block) })
		if base.Stats() != variant.Stats() {
			b.Fatalf("chains diverged: %+v without probe, %+v with", base.Stats(), variant.Stats())
		}
		if got, want := probe.Counters().Steps, uint64(b.N)*block; got != want {
			b.Fatalf("probe counted %d steps, want %d", got, want)
		}
	})
	b.Run("sharded-P1", func(b *testing.B) {
		// One epoch per block (4n proposals), so each block pays its
		// re-partitioning exactly as a long run does.
		const n = 100_000
		const block = 4 * n
		base := burnedInChain(b, core.LayoutSpiral, n, 4)
		cfg, err := core.Initial(core.LayoutSpiral, core.Bichromatic(n), 1)
		if err != nil {
			b.Fatal(err)
		}
		sh, err := core.NewSharded(cfg, core.Params{Lambda: 4, Gamma: 4, Seed: 1}, core.ShardedOptions{Workers: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		runSharded := func() {
			if _, err := sh.Run(context.Background(), block); err != nil {
				b.Fatal(err)
			}
		}
		runSharded() // warm the tile directory and band partition
		pairedRatio(b, 2.0, func() { base.Run(block) }, runSharded)
	})
}

// minJudgedPairs is the fewest pairs whose median pairedRatio judges: a
// -benchtime=1x smoke run exercises both sides without judging noise.
const minJudgedPairs = 10

// pairedRatio runs one base block and one variant block per b.N
// iteration, alternating which side goes first so drift within a pair
// lands on both sides alike. It reports the median variant/base time
// ratio with its quartiles, and fails when at least minJudgedPairs pairs
// put the median above limit.
func pairedRatio(b *testing.B, limit float64, base, variant func()) {
	timed := func(f func()) float64 {
		start := time.Now()
		f()
		return float64(time.Since(start))
	}
	ratios := make([]float64, b.N)
	b.ResetTimer()
	for i := range ratios {
		if i%2 == 0 {
			tb := timed(base)
			ratios[i] = timed(variant) / tb
		} else {
			tv := timed(variant)
			ratios[i] = tv / timed(base)
		}
	}
	b.StopTimer()
	q1, med, q3 := stats.Quantile(ratios, 0.25), stats.Quantile(ratios, 0.5), stats.Quantile(ratios, 0.75)
	b.ReportMetric(med, "ratio")
	b.ReportMetric(q1, "ratio-q1")
	b.ReportMetric(q3, "ratio-q3")
	if b.N >= minJudgedPairs && med > limit {
		b.Fatalf("median variant/base ratio %.3f [%.3f, %.3f] over %d pairs exceeds %.2f", med, q1, q3, b.N, limit)
	}
}

// burnedInChain builds the chain-step benchmarks' chain — n bichromatic
// particles in the given layout at λ = 4 and the given γ, seed 1 — and
// burns it in to its steady state.
func burnedInChain(b *testing.B, layout core.Layout, n int, gamma float64) *core.Chain {
	cfg, err := core.Initial(layout, core.Bichromatic(n), 1)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := core.New(cfg, core.Params{Lambda: 4, Gamma: gamma, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ch.Run(200_000)
	return ch
}

// E21 — the metrics snapshot path: capturing a full Snapshot (perimeter,
// compression, segregation, cluster structure, phase) of the live
// configuration through the reusable zero-allocation Meter.
func BenchmarkMetricsSnapshot(b *testing.B) {
	sys, err := sops.New(sops.Options{Counts: core.Bichromatic(100), Lambda: 4, Gamma: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sys.RunSteps(200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := sys.Metrics()
		if snap.N != 100 {
			b.Fatal("snapshot lost particles")
		}
	}
}

// E1 — Figure 2: time evolution at λ = γ = 4 from a worst-case line.
// Reports the final compression factor and segregation index; the paper's
// shape (most progress in the first ~1/60 of the run) is asserted in
// internal/experiments tests.
func BenchmarkFigure2Evolution(b *testing.B) {
	checkpoints := []uint64{0, 50_000, 1_050_000, 3_400_000}
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure2(100, 4, 4, checkpoints, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1].Snap
		b.ReportMetric(last.Alpha, "alpha")
		b.ReportMetric(last.Segregation, "segregation")
		b.ReportMetric(float64(last.HetEdges), "hetEdges")
	}
}

// E2 — Figure 3: the (λ, γ) phase diagram. Reports how many of the four
// expected phases appear on a 2×2 corner grid.
func BenchmarkFigure3PhaseDiagram(b *testing.B) {
	spec := sops.SweepSpec{
		Lambdas: []float64{0.25, 4}, Gammas: []float64{1, 6},
		Counts: sops.Bichromatic(60), Layout: sops.LayoutLine,
		Steps: 2_000_000, Seed: 2,
	}
	for i := 0; i < b.N; i++ {
		cells, err := sops.Sweep(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		phases := map[sops.Phase]bool{}
		for _, c := range cells {
			phases[c.Snap.Phase] = true
		}
		b.ReportMetric(float64(len(phases)), "distinctPhases")
	}
}

// E3 — §3.2 swap ablation: iterations to a fixed segregation target with
// and without swap moves.
func BenchmarkSwapAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.SwapAblation(60, 4, 4, 0.5, 6_000_000, 25_000, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.WithSwaps), "withSwapsIters")
		b.ReportMetric(float64(res.WithoutSwaps), "withoutSwapsIters")
		if res.WithSwaps > 0 && res.WithoutSwaps > 0 {
			b.ReportMetric(float64(res.WithoutSwaps)/float64(res.WithSwaps), "slowdown")
		}
	}
}

// E4 — Lemma 2: p_min(n) ≤ 2√3·√n. Reports the worst observed ratio
// p_min/bound over a range of n (must stay ≤ 1).
func BenchmarkLemma2PerimeterBound(b *testing.B) {
	ns := []int{1, 7, 19, 37, 61, 100, 169, 271, 397, 547, 1000, 2000}
	for i := 0; i < b.N; i++ {
		rows := experiments.Lemma2Table(ns)
		worst := 0.0
		for _, r := range rows {
			if r.Bound > 0 {
				if ratio := float64(r.PMin) / r.Bound; ratio > worst {
					worst = ratio
				}
			}
		}
		b.ReportMetric(worst, "worstRatio")
	}
}

// E5 — Lemma 9: the chain's empirical distribution versus the exact
// stationary distribution π ∝ λ^e·γ^a on the full enumerated state space.
// Reports the total-variation distance (small is correct).
func BenchmarkLemma9Stationarity(b *testing.B) {
	counts := []int{2, 1}
	lambda, gamma := 2.0, 2.0
	configs, err := enumerate.Configs(counts, true)
	if err != nil {
		b.Fatal(err)
	}
	pi := enumerate.Stationary(configs, lambda, gamma)
	index := make(map[string]int, len(configs))
	for i, cfg := range configs {
		index[cfg.CanonicalKey()] = i
	}
	for i := 0; i < b.N; i++ {
		init, err := core.Initial(core.LayoutLine, counts, 5)
		if err != nil {
			b.Fatal(err)
		}
		ch, err := core.New(init, core.Params{Lambda: lambda, Gamma: gamma, Seed: 17})
		if err != nil {
			b.Fatal(err)
		}
		ch.Run(20_000)
		hist := make([]float64, len(configs))
		const samples = 150_000
		for s := 0; s < samples; s++ {
			ch.Run(5)
			hist[index[ch.Config().CanonicalKey()]]++
		}
		for j := range hist {
			hist[j] /= samples
		}
		b.ReportMetric(enumerate.TotalVariation(pi, hist), "tvDistance")
	}
}

// E6 — Theorem 13: compression frequency for large γ (γ > 4^{5/4},
// λγ > 6.83) versus unbiased dynamics.
func BenchmarkTheorem13Compression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		biased, err := experiments.CompressionFrequencyContext(context.Background(), 60, 4, 6, 3, 2_000_000, 10_000, 40, 4)
		if err != nil {
			b.Fatal(err)
		}
		unbiased, err := experiments.CompressionFrequencyContext(context.Background(), 60, 1, 1, 3, 2_000_000, 10_000, 40, 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(biased.Freq, "prCompressedBiased")
		b.ReportMetric(unbiased.Freq, "prCompressedUnbiased")
	}
}

// E7 — Theorem 14: separation frequency under the fixed-boundary measure
// π_P ∝ γ^{−h} at large γ.
func BenchmarkTheorem14Separation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.FixedShapeSeparationContext(context.Background(), 3, 6, 4, 0.25, 2_000_000, 10_000, 40, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Freq, "prSeparated")
	}
}

// E8 — Theorem 15: compression frequency with γ in the window
// (79/81, 81/79) and λ(γ+1) > 6.83.
func BenchmarkTheorem15CompressionNearOne(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.CompressionFrequencyContext(context.Background(), 60, 6, 81.0/79.0, 3, 2_000_000, 10_000, 40, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Freq, "prCompressed")
	}
}

// E9 — Theorem 16: separation probability ≈ 0 for γ in the integration
// window, under the same fixed-boundary measure as E7.
func BenchmarkTheorem16Integration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.FixedShapeSeparationContext(context.Background(), 3, 81.0/79.0, 4, 0.25, 2_000_000, 10_000, 40, 9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Freq, "prSeparated")
	}
}

// E10a — the Kotecký–Preiss/Theorem 11 per-edge condition for the loop
// polymer model (the Lemma 12 machinery). Reports the condition total
// (must be ≤ c = 0.05 for satisfaction at γ = 8).
func BenchmarkKoteckyPreissLoops(b *testing.B) {
	m := polymer.LoopModel(8, 8)
	for i := 0; i < b.N; i++ {
		rep := polymer.CheckKP(m, 0.05)
		if !rep.Satisfied {
			b.Fatal("KP condition unexpectedly violated")
		}
		b.ReportMetric(rep.Total, "kpTotal")
		b.ReportMetric(rep.Tail, "kpTailBound")
	}
}

// E10b — Theorem 11's volume/surface decomposition: the exact ln Ξ on a
// hexagonal region versus the bracket ψ|Λ| ± c|∂Λ|. Reports the slack of
// the bracket (≥ 0 means the theorem's bound holds).
func BenchmarkClusterExpansionBounds(b *testing.B) {
	m := polymer.LoopModel(8, 4)
	const c = 0.05
	for i := 0; i < b.N; i++ {
		psi := polymer.PsiPerEdge(m, 3)
		region := polymer.HexRegion(2)
		pool := m.Enumerate(region)
		logXi := polymer.LogXiExact(m, pool)
		vol := psi * float64(len(region))
		surf := c * float64(len(region.SurfaceEdges()))
		slack := math.Min(logXi-(vol-surf), (vol+surf)-logXi)
		b.ReportMetric(slack, "bracketSlack")
		b.ReportMetric(psi, "psi")
	}
}

// E11 — the high-temperature expansion identity (§4): even-subgraph sum
// versus brute force over all colorings. Reports the worst relative error
// across shapes and γ values (must be ~1e-12).
func BenchmarkHighTemperatureExpansion(b *testing.B) {
	shape := psys.New()
	for _, p := range lattice.Hexagon(lattice.Point{}, 1) {
		if err := shape.Place(p, 0); err != nil {
			b.Fatal(err)
		}
	}
	gammas := []float64{79.0 / 81.0, 81.0 / 79.0, 2, 5.66}
	for i := 0; i < b.N; i++ {
		worst := 0.0
		for _, gamma := range gammas {
			brute, err := ising.PartitionBrute(shape, gamma)
			if err != nil {
				b.Fatal(err)
			}
			ht, err := ising.PartitionHT(shape, gamma)
			if err != nil {
				b.Fatal(err)
			}
			if e := math.Abs(brute-ht) / brute; e > worst {
				worst = e
			}
		}
		b.ReportMetric(worst, "worstRelError")
	}
}

// E12 — §5 multi-color extension: k = 4 colors at λ = γ = 4. Reports the
// mean largest-cluster fraction (→ 1 under separation).
func BenchmarkMultiColorSeparation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultiColor(4, 15, 4, 4, 4_000_000, 9)
		if err != nil {
			b.Fatal(err)
		}
		mean := 0.0
		for _, f := range res.ClusterFrac {
			mean += f
		}
		mean /= float64(len(res.ClusterFrac))
		b.ReportMetric(mean, "meanClusterFrac")
		b.ReportMetric(res.Snap.Segregation, "segregation")
	}
}

// E13 — the amoebot runtime's one scheduler: activation throughput at one
// worker (the sequential execution) and at GOMAXPROCS workers, with
// invariants intact (checked in tests under -race).
func BenchmarkConcurrentScheduler(b *testing.B) {
	for _, workers := range slices.Compact([]int{1, runtime.GOMAXPROCS(0)}) {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg, err := core.Initial(core.LayoutSpiral, []int{50, 50}, 3)
			if err != nil {
				b.Fatal(err)
			}
			w, err := amoebot.NewWorld(cfg, core.Params{Lambda: 4, Gamma: 4}, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := amoebot.Run(context.Background(), w, 1_000_000, workers, uint64(i), nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(1_000_000*float64(b.N)/b.Elapsed().Seconds(), "activations/s")
		})
	}
}

// E14 — the PODC '16 compression baseline (monochromatic, γ = 1): the
// frequency of 3-compression above and below the provable λ threshold
// 2(2+√2) ≈ 6.83.
func BenchmarkCompressionBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		strong, err := experiments.MonochromaticCompressionFrequencyContext(context.Background(), 60, 8, 3, 2_000_000, 10_000, 40, 6)
		if err != nil {
			b.Fatal(err)
		}
		weak, err := experiments.MonochromaticCompressionFrequencyContext(context.Background(), 60, 1, 3, 2_000_000, 10_000, 40, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(strong.Freq, "prCompressedLambda8")
		b.ReportMetric(weak.Freq, "prCompressedLambda1")
	}
}

// derivedTrace synthesizes a realistic sampled trajectory whose derivable
// columns (energy, α, segregation, hom edges, largest fraction) really
// follow from (λ, γ, census) — the shape a production recorder sees, and
// the case the binary trace codec's elision rules are built for.
func derivedTrace(n int) ([]telemetry.Sample, float64, float64, []int) {
	const parts = 100
	lambda, gamma := 4.0, 2.0
	counts := []int{50, 50}
	minPerim := psys.MinPerimeter(parts)
	r := rng.New(3)
	out := make([]telemetry.Sample, n)
	perim, edges, het, size := 3*minPerim, 150, 60, 30
	var steps uint64
	for i := range out {
		steps += 1000
		perim = max(minPerim, min(4*minPerim, perim+r.Intn(5)-2))
		edges = max(120, min(260, edges+r.Intn(7)-3))
		het = max(0, min(edges, het+r.Intn(5)-2))
		size = max(1, min(counts[0], size+r.Intn(3)-1))
		m := metrics.Snapshot{
			Steps:        steps,
			N:            parts,
			Perimeter:    perim,
			MinPerimeter: minPerim,
			Alpha:        float64(perim) / float64(minPerim),
			Edges:        edges,
			HomEdges:     edges - het,
			HetEdges:     het,
			Segregation:  metrics.SegregationDerived(edges, het, parts, counts),
			LargestFrac:  float64(size) / float64(counts[0]),
			Phase:        metrics.CompressedSeparated,
		}
		energy := -float64(edges)*math.Log(lambda) - float64(edges-het)*math.Log(gamma)
		out[i] = telemetry.Sample{Snap: m, Energy: energy}
	}
	return out, lambda, gamma, counts
}

// E27 — checkpoint encode+write throughput, binary snapbin frames against
// the JSON document (Checkpoint, the text interchange form), at n = 10³
// and 10⁵ particles. The binary encoder must hold 0 allocs/op at steady
// state; the restore legs measure the full decode back to a live System.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		sys, err := sops.New(sops.Options{
			Counts: []int{n / 2, n - n/2}, Lambda: 4, Gamma: 4, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, leg := range []struct {
			format string
			encode func(io.Writer) error
		}{
			{"snapbin", sys.WriteCheckpointTo},
			{"json", func(w io.Writer) error {
				data, err := sys.Checkpoint()
				if err == nil {
					_, err = w.Write(data)
				}
				return err
			}},
		} {
			var buf bytes.Buffer
			if err := leg.encode(&buf); err != nil {
				b.Fatal(err)
			}
			data := append([]byte(nil), buf.Bytes()...)
			b.Run(fmt.Sprintf("n=%d/%s/encode", n, leg.format), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					if err := leg.encode(io.Discard); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(data)), "bytes/artifact")
			})
			b.Run(fmt.Sprintf("n=%d/%s/restore", n, leg.format), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					if _, err := sops.Restore(data, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// E27 — recorder flush throughput: rendering a full ring of trajectory
// samples in each wire format. The snapbin leg is the production flush
// path (reusable scratch, 0 allocs/op at steady state); the JSONL and CSV
// legs are the text interchange formats.
func BenchmarkRecorderFlush(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		samples, lambda, gamma, counts := derivedTrace(n)
		rec := telemetry.NewRecorder(n, 0)
		for _, s := range samples {
			rec.Record(s)
		}
		rec.SetDerivation(lambda, gamma, counts)
		b.Run(fmt.Sprintf("n=%d/snapbin", n), func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				size = len(rec.EncodeBinary())
			}
			b.SetBytes(int64(size))
			b.ReportMetric(float64(size), "bytes/artifact")
			b.ReportMetric(float64(size)/float64(n), "bytes/sample")
		})
		b.Run(fmt.Sprintf("n=%d/jsonl", n), func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				data, err := rec.EncodeJSONL()
				if err != nil {
					b.Fatal(err)
				}
				size = len(data)
			}
			b.SetBytes(int64(size))
			b.ReportMetric(float64(size), "bytes/artifact")
			b.ReportMetric(float64(size)/float64(n), "bytes/sample")
		})
		b.Run(fmt.Sprintf("n=%d/csv", n), func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				size = len(rec.EncodeCSV())
			}
			b.SetBytes(int64(size))
			b.ReportMetric(float64(size), "bytes/artifact")
			b.ReportMetric(float64(size)/float64(n), "bytes/sample")
		})
	}
}
