package core

import (
	"testing"
)

// TestChainStepAllocs: at steady state — chain burned in, storage window
// warmed — Chain.Step performs zero heap allocations, whatever the
// proposal outcome. This is the defining property of the dense occupancy
// store: the hot path is array loads only. The cases are the set-ups of
// the root chain-step benchmarks, plus the n = 10⁵ spiral of the
// large-serial benchmark workload, where a window re-home rebases 10⁵
// slots in place.
func TestChainStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		layout Layout
		n      int
		gamma  float64
	}{
		{"ChainStep", LayoutLine, 100, 4},
		{"ChainStepN1000", LayoutSpiral, 1000, 4},
		{"ChainStepSwapPath", LayoutSpiral, 100, 1.05},
		{"ChainStepN100000", LayoutSpiral, 100_000, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := Initial(tc.layout, Bichromatic(tc.n), 1)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := New(cfg, Params{Lambda: 4, Gamma: tc.gamma, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			ch.Run(200_000) // burn in: compress and settle the window
			if avg := testing.AllocsPerRun(5000, func() {
				ch.Step()
			}); avg != 0 {
				t.Fatalf("Chain.Step allocates %v times per step at steady state", avg)
			}
		})
	}
}
