package core

import (
	"math"

	"sops/internal/rng"
)

// The Metropolis filters of Algorithm 1 accept with probability
// min(1, λ^dλ·γ^dγ); the seed implementation tested
//
//	prob < 1 && rand.Float64() >= prob   → reject.
//
// Float64 is (Uint64()>>11)/2^53, so with v = Uint64()>>11 the rejection
// condition is float64(v)/2^53 >= prob. Both sides are exact: v < 2^53 is
// exactly representable, the division by a power of two is exact, and
// prob·2^53 is the float64 prob with its exponent shifted (no rounding).
// Hence for integer v,
//
//	float64(v)/2^53 >= prob  ⟺  v >= ceil(prob·2^53),
//
// and the whole filter becomes one integer compare against a threshold
// precomputed per exponent. prob >= 1 ⟺ ceil(prob·2^53) >= 2^53, and the
// seed code consumed no random draw in that case, so the threshold is
// clamped to the sentinel probScale = 2^53 (unreachable by v) and the
// chain skips the draw — the same RNG stream, the same decisions, bit for
// bit. TestAcceptThresholdEquivalence pins this argument independently of
// the golden trajectories.

// probScale is 2^53, the resolution of rng.Float64 and the sentinel
// threshold meaning "accept without consuming a draw".
const probScale = 1 << 53

// acceptThreshold converts an acceptance probability into the integer
// threshold: reject iff Uint64()>>11 >= threshold, except the sentinel
// probScale which accepts without drawing.
func acceptThreshold(prob float64) uint64 {
	if prob >= 1 {
		return probScale
	}
	return uint64(math.Ceil(prob * probScale))
}

// acceptDraw runs a Metropolis filter against a precomputed threshold
// using draws from r, consuming one raw draw exactly when the seed
// implementation did (prob < 1 ⟺ thresh < probScale).
func acceptDraw(r *rng.Buffered, thresh uint64) bool {
	if thresh == probScale {
		return true
	}
	return r.Uint64()>>11 < thresh
}
