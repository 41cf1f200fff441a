package ising_test

import (
	"context"
	"testing"

	"sops/internal/experiments"
)

// kawasakiPins are the configuration hash and accepted-swap count after
// 10⁵ steps of the retired standalone Kawasaki sampler, which drew the
// particle (Intn(n) over canonical point order) and the direction
// (Intn(6)) from one rng.New(seed) stream, rejected a vacant target
// without a draw, and filtered a swap with a Float64 against γ^Δa from its
// own power table. Chain M restricted to swaps consumes the same stream
// and makes the same decisions, so it must reproduce every row.
var kawasakiPins = []struct {
	radius, colors int
	gamma          float64
	seed           uint64
	hash           uint64
	swaps          uint64
}{
	{1, 2, 0.5, 1, 0x9e1214874c901134, 23211},
	{1, 2, 0.5, 2, 0x5ec1ac4058224f94, 23241},
	{1, 2, 81.0 / 79, 1, 0xdd7d95a2cb0a7bb4, 32042},
	{1, 2, 81.0 / 79, 2, 0xf24eec09c8b11974, 32032},
	{1, 2, 2, 1, 0xdec751f0acbc61d4, 16447},
	{1, 2, 2, 2, 0xdec751f0acbc61d4, 16693},
	{1, 2, 6, 1, 0xf24eec09c8b11974, 4160},
	{1, 2, 6, 2, 0x00c583c5a8bf0754, 4315},
	{1, 3, 0.5, 1, 0x8f67b6f8f3c40956, 34258},
	{1, 3, 0.5, 2, 0x0d67cc9492151af6, 34600},
	{1, 3, 81.0 / 79, 1, 0x731e8a523603e936, 42773},
	{1, 3, 81.0 / 79, 2, 0x85eeac9b21a8ab76, 43111},
	{1, 3, 2, 1, 0x45cb02833d2eb2f6, 26815},
	{1, 3, 2, 2, 0x5a35c26ed9104df6, 27484},
	{1, 3, 6, 1, 0x7f8bd543f888ec76, 9358},
	{1, 3, 6, 2, 0xa0006611ed294836, 9489},
	{3, 2, 0.5, 1, 0xa4a3b5331e3057a8, 27402},
	{3, 2, 0.5, 2, 0xb99709923ab725e8, 27665},
	{3, 2, 81.0 / 79, 1, 0x64ce750bcb9c5a48, 40335},
	{3, 2, 81.0 / 79, 2, 0xf4282c00e5b6e0e8, 39899},
	{3, 2, 2, 1, 0x5e275d1f37c8d648, 7443},
	{3, 2, 2, 2, 0xd9710f20d3eb9888, 7502},
	{3, 2, 6, 1, 0xfae3332f954ac188, 229},
	{3, 2, 6, 2, 0x4812ddf018c940c8, 437},
	{3, 3, 0.5, 1, 0x320ac780db75e36b, 38059},
	{3, 3, 0.5, 2, 0x2f7b3fa60705bc8b, 38034},
	{3, 3, 81.0 / 79, 1, 0xa05fb6f027fd260b, 54067},
	{3, 3, 81.0 / 79, 2, 0xf398e875c19ff22b, 54033},
	{3, 3, 2, 1, 0x668aeca788f7c0ab, 15108},
	{3, 3, 2, 2, 0x07eded2d2ce1ddcb, 16335},
	{3, 3, 6, 1, 0x8e14ac7fd732cbcb, 816},
	{3, 3, 6, 2, 0x1b172d8b0acd0d0b, 860},
}

// fixedShapePins are the retired sampler's FixedShapeSeparationContext
// hits over cmd/figures' γ grid, at its default-scale arguments (radius 3,
// β = 4, δ = 0.25, burn-in 4·10⁵, gap 2·10⁴, 40 samples).
var fixedShapePins = []struct {
	gamma float64
	seed  uint64
	hits  int
}{
	{81.0 / 79, 1, 3}, {1.5, 1, 17}, {2, 1, 33}, {3, 1, 40}, {4, 1, 40}, {6, 1, 40},
	{81.0 / 79, 2, 1}, {1.5, 2, 15}, {2, 2, 38}, {3, 2, 40}, {4, 2, 40}, {6, 2, 40},
}

// TestKawasakiPinned holds the Kawasaki model on core.Chain, and the
// fixed-shape experiment built on it, bit for bit to the sampler it
// replaced.
func TestKawasakiPinned(t *testing.T) {
	for _, p := range kawasakiPins {
		k := kawasaki(t, hexShape(t, p.radius, p.colors), p.gamma, p.seed)
		k.Run(100_000)
		if h, s := k.Config().Hash(), k.Stats().Swaps; h != p.hash || s != p.swaps {
			t.Errorf("r=%d k=%d γ=%v seed %d: hash %#016x swaps %d, want %#016x %d",
				p.radius, p.colors, p.gamma, p.seed, h, s, p.hash, p.swaps)
		}
	}
	for _, p := range fixedShapePins {
		res, err := experiments.FixedShapeSeparationContext(context.Background(), 3, p.gamma, 4, 0.25, 400_000, 20_000, 40, p.seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hits != p.hits || res.Samples != 40 {
			t.Errorf("fixed shape γ=%v seed %d: %d/%d hits, want %d/40", p.gamma, p.seed, res.Hits, res.Samples, p.hits)
		}
	}
}
