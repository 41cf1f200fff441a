// Package rng provides a small, fast, deterministic pseudorandom number
// generator used throughout the simulator.
//
// The generator is xoshiro256**, seeded via splitmix64. It is not
// cryptographically secure; it is chosen for speed, statistical quality in
// Monte Carlo use, and exact reproducibility across runs and platforms.
// Independent streams for parallel workers are derived with the generator's
// jump function, which advances the state by 2^128 steps.
package rng

import (
	"errors"
	"fmt"
	"math/bits"
)

// errInvalidState reports a malformed serialized generator state.
var errInvalidState = errors.New("rng: invalid serialized state")

// Source is a deterministic pseudorandom source. It is not safe for
// concurrent use; derive one Source per goroutine with NewStream.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64, so that any seed
// (including 0) yields a well-mixed initial state.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	return &src
}

// Uint64 returns the next pseudorandom 64-bit value.
func (r *Source) Uint64() uint64 {
	v, s0, s1, s2, s3 := next(r.s[0], r.s[1], r.s[2], r.s[3])
	r.s = [4]uint64{s0, s1, s2, s3}
	return v
}

// fill writes the next len(dst) values of the stream into dst. The state
// words stay in registers across the loop and are stored back once, where
// len(dst) calls of Uint64 would load and store all four per value.
func (r *Source) fill(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for k := range dst {
		dst[k], s0, s1, s2, s3 = next(s0, s1, s2, s3)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// next is one xoshiro256** step: the output of state (s0, s1, s2, s3) and
// the successor state.
func next(s0, s1, s2, s3 uint64) (v, n0, n1, n2, n3 uint64) {
	v = bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return v, s0, s1, s2, bits.RotateLeft64(s3, 45)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
// It uses Lemire's nearly-divisionless bounded rejection method, so the
// result is exactly uniform.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Shuffle permutes a slice of length n in place using the Fisher-Yates
// algorithm; swap exchanges elements i and j.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns an unbiased random boolean.
func (r *Source) Bool() bool {
	return r.Uint64()&1 == 1
}

// NewStream returns a new Source whose sequence is guaranteed not to overlap
// the next 2^128 outputs of r. It mutates r (jumping its state), so
// repeatedly calling NewStream on one root Source yields pairwise
// non-overlapping streams for parallel workers.
func (r *Source) NewStream() *Source {
	child := &Source{s: r.s}
	r.jump()
	return child
}

// SeedAt returns element i of a deterministic seed sequence rooted at root.
// The mapping is a stateless splitmix64-style mix of (root, i), so any
// element can be computed independently and in any order: parallel sweep
// workers can derive the seed for cell i without coordinating, and the
// derived seeds are identical regardless of how cells are scheduled.
// Feeding the result to New yields a well-mixed, per-cell stream.
func SeedAt(root, i uint64) uint64 {
	z := root + (i+1)*0x9e3779b97f4a7c15
	for round := 0; round < 2; round++ {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// jump advances the state by 2^128 steps of Uint64.
func (r *Source) jump() {
	jumpPoly := [4]uint64{
		0x180ec6d33cfd0aba, 0xd5a61266f0c9392c,
		0xa9582618e03fc9aa, 0x39abdc4529b1661c,
	}
	var s0, s1, s2, s3 uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				s0 ^= r.s[0]
				s1 ^= r.s[1]
				s2 ^= r.s[2]
				s3 ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// AppendBinary appends the generator state to dst: 32 bytes, big endian.
func (r *Source) AppendBinary(dst []byte) []byte {
	for _, s := range r.s {
		for b := 0; b < 8; b++ {
			dst = append(dst, byte(s>>(56-8*b)))
		}
	}
	return dst
}

// UnmarshalBinary restores a state written by AppendBinary. It rejects
// the all-zero state, which xoshiro256** never reaches and never leaves: a
// generator in it draws only zeros, on which Intn's rejection loop never
// ends for any bound but a power of two.
func (r *Source) UnmarshalBinary(data []byte) error {
	if len(data) != 32 {
		return fmt.Errorf("%w: %d bytes, want 32", errInvalidState, len(data))
	}
	var s [4]uint64
	for i := range s {
		for b := 0; b < 8; b++ {
			s[i] = s[i]<<8 | uint64(data[i*8+b])
		}
	}
	if s == [4]uint64{} {
		return fmt.Errorf("%w: all-zero state", errInvalidState)
	}
	r.s = s
	return nil
}
