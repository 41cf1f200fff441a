package core

import (
	"encoding/hex"
	"testing"
)

// chainPins are the configuration hash, the outcome counts and the 32-byte
// rng state after 10⁵ steps of chain M, recorded on the kernel that
// decided every swap proposal through the full ring gather, the model's
// SwapExponents and the threshold table. The committed golden
// trajectories run only at λ = γ = 4, where every same-colour swap spends
// a draw; these rows add the cases where none does (γ ≤ 1, no swaps),
// couplings off the golden grid, the alignment and anneal models (the
// anneal row crosses three stage boundaries, from γ_eff = 1 up to 16) and
// an n = 10⁴ spiral. Any change to which draws a proposal consumes, or to
// what it decides, shifts a row.
var chainPins = []struct {
	name    string
	model   Model
	counts  []int
	layout  Layout
	coup    []float64
	noSwaps bool
	seed    uint64

	hash                   uint64
	moves, swaps, rejected uint64
	rng                    string
}{
	{"sep-l0.25-g0.5", Separation, []int{50, 50}, LayoutLine, []float64{0.25, 0.5}, false, 1,
		0xc4fe79abcd05d277, 2761, 14863, 82376, "20f2deb7d033be1b2e0001b698fcd46cfb9be1e21b6d94cb2dc96fd81ba44a18"},
	{"sep-l0.25-g1", Separation, []int{50, 50}, LayoutLine, []float64{0.25, 1}, false, 2,
		0x823840eaaf23a7b2, 2549, 17160, 80291, "f457127192e118da34e2239976c71aec4b060beb85b364e83796f239fcfccb4c"},
	{"sep-l0.25-g81/79", Separation, []int{50, 50}, LayoutLine, []float64{0.25, 81.0 / 79}, false, 3,
		0xa91efcbb855883a5, 3412, 16282, 80306, "a04835039df32229213d2f2566895395706836669c3518c5bc14d9ab8bd27cf4"},
	{"sep-l0.25-g4", Separation, []int{50, 50}, LayoutLine, []float64{0.25, 4}, false, 4,
		0x4386ecbdf0ed8650, 4794, 2638, 92568, "9092c5e324ade1178d4e2df0d329cef97d801576b5fe9ed901eb87b2dd1b0e8f"},
	{"sep-l4-g0.5", Separation, []int{50, 50}, LayoutLine, []float64{4, 0.5}, false, 5,
		0xeefeb26c24414be3, 3805, 16044, 80151, "216e1748f938ff1388765e2cfaec277ff21889f5b43ace2aa8c83761f0c0d348"},
	{"sep-l4-g1", Separation, []int{50, 50}, LayoutLine, []float64{4, 1}, false, 6,
		0x63ba0f112a7c3d92, 2421, 18329, 79250, "5d5e9d6bac1ff3ad7d4389b2ac7d8e510f77b650a875775e7cd9dc4893b48fd8"},
	{"sep-l4-g81/79", Separation, []int{50, 50}, LayoutLine, []float64{4, 81.0 / 79}, false, 7,
		0x7c425b835496805f, 2939, 18817, 78244, "dd87f337a04cfd0b2cb942d203ead7e4964be5bca5a155a7740962d969940b5f"},
	{"sep-l4-g4", Separation, []int{50, 50}, LayoutLine, []float64{4, 4}, false, 8,
		0xc662662f29fb6060, 1253, 2703, 96044, "0ec923cd3d81432e80e476bc8a67aa2ae264c0d93e1c5d653b2e0de60262f504"},
	{"sep-l4-g4-noswaps", Separation, []int{50, 50}, LayoutLine, []float64{4, 4}, true, 9,
		0x2839ff6ba0626638, 1770, 0, 98230, "21ef58f5ef16c7351aaf5bf7845cc2d78c092f73c818a758e20cff945d069977"},
	{"sep-l4-g4-k3", Separation, []int{34, 33, 33}, LayoutLine, []float64{4, 4}, false, 10,
		0xb510ab576fb9c46b, 1284, 5247, 93469, "0743f21be5333b7f52090d94d2d838f07d3ee389943a777e57bc39d91a638aea"},
	{"sep-mono-l4-g1", Separation, []int{100}, LayoutLine, []float64{4, 1}, false, 11,
		0xa3af1bb8be6ac8c7, 3152, 0, 96848, "3d3a93b79b70087ee21b23891904c0a6479522d06ab5cc8f1dd3f9908b7cde3e"},
	{"align-k3-defaults", Alignment, []int{34, 33, 33}, LayoutLine, nil, false, 12,
		0x0eec3a659ff7f70b, 1368, 12920, 85712, "21d8c701f71a8cb5796e4c1a7e8edaf7077b512802d8a34dbc6185c498f8c0ee"},
	{"align-k3-1.3-2.7-1.9", Alignment, []int{34, 33, 33}, LayoutLine, []float64{1.3, 2.7, 1.9}, false, 13,
		0x146f5a9417d8f30f, 4689, 18111, 77200, "ba094b59c56b4519a3ceaf670863f6f7421fc23e603330f3a9d62b68d4983473"},
	{"anneal-4-stages", Anneal, []int{50, 50}, LayoutLine, []float64{4, 16, 4, 30_000}, false, 14,
		0x494e628be8d0b3a2, 1876, 7486, 90638, "f6905530d110605793814f70ca0c4143cb0b3aaf040c14b4d7f82bb84956b173"},
	{"sep-spiral-n10000", Separation, Bichromatic(10_000), LayoutSpiral, []float64{4, 4}, false, 15,
		0x84757b3040bc99d1, 9, 9124, 90867, "556b3825f0cb61ee250a9dcd4f2b81cd8f25b91883a5508ab39dc8ebe335a479"},
}

// TestChainPinned holds every row of chainPins bit for bit.
func TestChainPinned(t *testing.T) {
	for _, p := range chainPins {
		cfg := mustInitial(t, p.layout, p.counts, p.seed)
		ch, err := NewWithModel(cfg, Params{DisableSwaps: p.noSwaps, Seed: p.seed}, p.model, p.coup)
		if err != nil {
			t.Fatal(err)
		}
		ch.Run(100_000)
		st, h, r := ch.Stats(), ch.Config().Hash(), hex.EncodeToString(ch.rand.AppendState(nil))
		if h != p.hash || st.Moves != p.moves || st.Swaps != p.swaps || st.Rejected != p.rejected || r != p.rng {
			t.Errorf("%s: got hash %#016x, %d moves, %d swaps, %d rejected, rng %s; want %#016x, %d, %d, %d, %s",
				p.name, h, st.Moves, st.Swaps, st.Rejected, r, p.hash, p.moves, p.swaps, p.rejected, p.rng)
			t.Logf("row: %#016x, %d, %d, %d, %q", h, st.Moves, st.Swaps, st.Rejected, r)
		}
	}
}
