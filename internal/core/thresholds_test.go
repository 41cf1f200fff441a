package core

import (
	"math"
	"testing"

	"sops/internal/rng"
)

// TestAcceptThresholdEquivalence proves, independently of the golden
// trajectories, that the integer filter v >= acceptThreshold(prob) makes
// the identical decision as the seed implementation's floating-point test
// float64(v)/2^53 >= prob for every draw value v — checked exhaustively
// at the boundary values of every threshold over a dense sweep of (λ, γ)
// including λγ < 1 and prob ≥ 1 regimes, plus random draws.
func TestAcceptThresholdEquivalence(t *testing.T) {
	lambdas := []float64{0.1, 0.25, 0.5, 0.9, 79.0 / 81.0, 1, 81.0 / 79.0, 1.1, 2, 4, 5.66, 8, 100}
	gammas := []float64{0.2, 0.5, 79.0 / 81.0, 1, 81.0 / 79.0, 1.05, 2, 4, 6, 50}
	r := rng.New(3)
	checked := 0
	for _, lambda := range lambdas {
		for _, gamma := range gammas {
			for a := -maxExp; a <= maxExp; a++ {
				for b := -maxExp; b <= maxExp; b++ {
					// The identical float64 product the chain tables form.
					prob := math.Pow(lambda, float64(a)) * math.Pow(gamma, float64(b))
					thresh := acceptThreshold(prob)
					if prob >= 1 {
						if thresh != probScale {
							t.Fatalf("λ=%v γ=%v λ^%d·γ^%d=%v: threshold %d, want sentinel %d",
								lambda, gamma, a, b, prob, thresh, uint64(probScale))
						}
						continue // seed code consumed no draw; nothing to compare
					}
					vs := []uint64{0, 1, probScale - 1}
					if thresh > 0 {
						vs = append(vs, thresh-1, thresh)
					}
					if thresh+1 < probScale {
						vs = append(vs, thresh+1)
					}
					for k := 0; k < 8; k++ {
						vs = append(vs, r.Uint64()>>11)
					}
					for _, v := range vs {
						intReject := v >= thresh
						floatReject := float64(v)/(1<<53) >= prob
						if intReject != floatReject {
							t.Fatalf("λ=%v γ=%v λ^%d·γ^%d=%v thresh=%d v=%d: integer reject %v, float reject %v",
								lambda, gamma, a, b, prob, thresh, v, intReject, floatReject)
						}
						checked++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no sub-unit probabilities checked")
	}
}

// TestAcceptConsumesDrawExactlyWhenSeedDid pins the stream contract of
// acceptDraw, through which every Rule decides: the sentinel threshold
// consumes no randomness, any other threshold consumes exactly one Uint64
// — matching the seed's `prob < 1 && rand.Float64() >= prob`
// short-circuit.
func TestAcceptConsumesDrawExactlyWhenSeedDid(t *testing.T) {
	cfg, err := Initial(LayoutLine, []int{2, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := New(cfg, Params{Lambda: 4, Gamma: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	before := ch.rand.AppendState(nil)
	if !acceptDraw(ch.rand, probScale) {
		t.Fatal("sentinel threshold must accept")
	}
	after := ch.rand.AppendState(nil)
	if string(before) != string(after) {
		t.Fatal("sentinel threshold consumed a random draw")
	}
	acceptDraw(ch.rand, probScale/2)
	after2 := ch.rand.AppendState(nil)
	if string(after) == string(after2) {
		t.Fatal("sub-unit threshold consumed no random draw")
	}
}
