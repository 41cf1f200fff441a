package rng

import "math/bits"

// bufLen is the number of raw draws fetched from the underlying generator
// per refill. Large enough to amortize the refill branch over a few dozen
// chain steps, small enough that the checkpoint replay in State stays
// trivially cheap.
const bufLen = 64

// Buffered wraps a Source with a refillable buffer of raw Uint64 draws, so
// hot loops consume pre-generated values instead of stepping the generator
// per call. The consumed stream is exactly the wrapped Source's stream —
// same values, same order, for any interleaving of Uint64, Intn, Float64
// and Bool — and State recovers the underlying generator positioned at the
// next unconsumed draw, so checkpoints remain byte-identical to an
// unbuffered run. Not safe for concurrent use.
type Buffered struct {
	buf  [bufLen]uint64
	i, n int
	// mark is the underlying generator's state at the moment of the last
	// refill; replaying i draws from it yields the logical stream position.
	mark Source
	// src runs ahead of consumption by the n−i still-buffered draws.
	src Source
}

// NewBuffered returns a buffered source seeded like New(seed).
func NewBuffered(seed uint64) *Buffered {
	b := &Buffered{}
	b.src = *New(seed)
	b.mark = b.src
	return b
}

// refill fetches the next bufLen draws from the underlying generator. It
// runs once per bufLen draws; kept out of line, it leaves Uint64 small
// enough to inline into every caller.
//
//go:noinline
func (b *Buffered) refill() {
	b.mark = b.src
	b.src.fill(b.buf[:])
	b.i, b.n = 0, bufLen
}

// Uint64 returns the next pseudorandom 64-bit value of the wrapped stream.
func (b *Buffered) Uint64() uint64 {
	if b.i == b.n {
		b.refill()
	}
	v := b.buf[b.i]
	b.i++
	return v
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision,
// consuming one Uint64 draw exactly like Source.Float64.
func (b *Buffered) Float64() float64 {
	return float64(b.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n), consuming draws exactly like
// Source.Intn (Lemire's bounded rejection method). It panics if n <= 0.
func (b *Buffered) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := b.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Bool returns an unbiased random boolean, consuming one draw.
func (b *Buffered) Bool() bool {
	return b.Uint64()&1 == 1
}

// State returns a Source positioned exactly at the next unconsumed draw:
// feeding its outputs onward is indistinguishable from continuing to draw
// from b. The buffered lookahead is reconstructed by replaying the at most
// bufLen consumed draws from the last refill mark, so serializing State
// and restoring via SetState resumes the identical stream.
func (b *Buffered) State() *Source {
	s := b.mark
	for k := 0; k < b.i; k++ {
		s.Uint64()
	}
	return &s
}

// AppendState appends the 32-byte binary form of State to dst without
// allocating: the replay runs on a stack copy of the refill mark.
func (b *Buffered) AppendState(dst []byte) []byte {
	s := b.mark
	for k := 0; k < b.i; k++ {
		s.Uint64()
	}
	return s.AppendBinary(dst)
}

// SetState repositions the buffered stream so that the next draws are
// exactly the outputs of s, discarding any buffered lookahead.
func (b *Buffered) SetState(s *Source) {
	b.src = *s
	b.mark = *s
	b.i, b.n = 0, 0
}
