package rng

import (
	"bytes"
	"testing"
)

// TestBufferedStreamIdentity: any interleaving of Uint64, Intn, Float64 and
// Bool on a Buffered consumes the identical stream as the same calls on a
// bare Source — the buffering is invisible to the consumer.
func TestBufferedStreamIdentity(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		plain := New(seed)
		buf := NewBuffered(seed)
		// Drive both with a call pattern derived from a third stream, so the
		// interleaving itself is arbitrary and crosses refill boundaries.
		pat := New(seed + 1000)
		for step := 0; step < 10_000; step++ {
			switch pat.Uint64() % 4 {
			case 0:
				if p, b := plain.Uint64(), buf.Uint64(); p != b {
					t.Fatalf("seed %d step %d: Uint64 %d != %d", seed, step, b, p)
				}
			case 1:
				n := int(pat.Uint64()%97) + 1
				if p, b := plain.Intn(n), buf.Intn(n); p != b {
					t.Fatalf("seed %d step %d: Intn(%d) %d != %d", seed, step, n, b, p)
				}
			case 2:
				if p, b := plain.Float64(), buf.Float64(); p != b {
					t.Fatalf("seed %d step %d: Float64 %v != %v", seed, step, b, p)
				}
			case 3:
				if p, b := plain.Bool(), buf.Bool(); p != b {
					t.Fatalf("seed %d step %d: Bool %v != %v", seed, step, b, p)
				}
			}
		}
	}
}

// TestBufferedState: State captures the logical stream position at any
// offset into the buffer; a fresh Buffered restored from it continues the
// identical stream.
func TestBufferedState(t *testing.T) {
	for _, consumed := range []int{0, 1, 7, bufLen - 1, bufLen, bufLen + 3, 5 * bufLen} {
		b := NewBuffered(42)
		for k := 0; k < consumed; k++ {
			b.Uint64()
		}
		restored := NewBuffered(0)
		restored.SetState(b.State())
		for k := 0; k < 3*bufLen; k++ {
			if want, got := b.Uint64(), restored.Uint64(); want != got {
				t.Fatalf("consumed %d, draw %d: restored stream %d != %d", consumed, k, got, want)
			}
		}
	}
}

// TestBufferedStateRoundTrip: AppendState writes the logical stream
// position mid-buffer in Source's binary codec, and a Buffered restored
// from it continues the identical stream and re-encodes the same bytes.
func TestBufferedStateRoundTrip(t *testing.T) {
	b := NewBuffered(7)
	for k := 0; k < 13; k++ {
		b.Uint64()
	}
	enc := b.AppendState(nil)
	var s Source
	if err := s.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	b2 := NewBuffered(0)
	b2.SetState(&s)
	if reenc := b2.AppendState(nil); !bytes.Equal(enc, reenc) {
		t.Fatalf("round trip changed state: %x != %x", enc, reenc)
	}
	for k := 0; k < 200; k++ {
		want := s.Uint64()
		if got := b.Uint64(); got != want {
			t.Fatalf("draw %d: original buffered %d != source %d", k, got, want)
		}
		if got := b2.Uint64(); got != want {
			t.Fatalf("draw %d: restored buffered %d != source %d", k, got, want)
		}
	}
}

// BenchmarkBufferedRefill times one refill of the 64-draw buffer.
func BenchmarkBufferedRefill(b *testing.B) {
	buf := NewBuffered(1)
	for i := 0; i < b.N; i++ {
		buf.refill()
	}
}
