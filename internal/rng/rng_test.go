package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: %d != %d", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero seed produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const draws = 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += r.Float64()
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of Float64 = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 6, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	const n, draws = 6, 600000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.02 {
			t.Fatalf("bucket %d count %d deviates >2%% from %v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

// TestPermIsPermutation: Shuffle of the identity is a permutation.
func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		New(seed).Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestStreamsDoNotOverlap(t *testing.T) {
	root := New(99)
	s1 := root.NewStream()
	s2 := root.NewStream()
	a := make(map[uint64]bool)
	for i := 0; i < 5000; i++ {
		a[s1.Uint64()] = true
	}
	collisions := 0
	for i := 0; i < 5000; i++ {
		if a[s2.Uint64()] {
			collisions++
		}
	}
	if collisions > 0 {
		t.Fatalf("streams share %d of 5000 outputs", collisions)
	}
}

func TestStreamDeterminism(t *testing.T) {
	mk := func() []uint64 {
		root := New(123)
		_ = root.NewStream()
		s := root.NewStream()
		out := make([]uint64, 10)
		for i := range out {
			out[i] = s.Uint64()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stream derivation is not deterministic at %d", i)
		}
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(17)
	trues := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool() {
			trues++
		}
	}
	if math.Abs(float64(trues)/draws-0.5) > 0.01 {
		t.Fatalf("Bool true fraction %v, want ~0.5", float64(trues)/draws)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn6(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Intn(6)
	}
	_ = sink
}

func TestMarshalRoundTrip(t *testing.T) {
	r := New(99)
	r.Uint64()
	blob := r.AppendBinary(nil)
	var restored Source
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a, b := r.Uint64(), restored.Uint64(); a != b {
			t.Fatalf("restored stream diverged at %d: %d vs %d", i, a, b)
		}
	}
	if err := restored.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("short state accepted")
	}
	if err := restored.UnmarshalBinary(make([]byte, 32)); err == nil {
		t.Fatal("all-zero state accepted")
	}
}

func TestSeedAtDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 1000; i++ {
		s := SeedAt(7, i)
		if s != SeedAt(7, i) {
			t.Fatalf("SeedAt(7, %d) not deterministic", i)
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("SeedAt(7, %d) == SeedAt(7, %d)", i, j)
		}
		seen[s] = i
	}
	if SeedAt(1, 0) == SeedAt(2, 0) {
		t.Fatal("different roots give equal seeds")
	}
}

func TestSeedAtStreamsDecorrelated(t *testing.T) {
	// Streams seeded from adjacent indices must not track each other.
	a, b := New(SeedAt(3, 0)), New(SeedAt(3, 1))
	equal := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			equal++
		}
	}
	if equal != 0 {
		t.Fatalf("%d/64 outputs collide between adjacent streams", equal)
	}
}
