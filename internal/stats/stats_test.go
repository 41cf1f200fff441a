package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWilsonCI(t *testing.T) {
	lo, hi := WilsonCI(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatalf("no-trials CI [%v,%v]", lo, hi)
	}
	lo, hi = WilsonCI(50, 100)
	if lo > 0.5 || hi < 0.5 || lo < 0.38 || hi > 0.62 {
		t.Fatalf("50/100 CI [%v,%v]", lo, hi)
	}
	lo, hi = WilsonCI(100, 100)
	if hi != 1 || lo < 0.95 {
		t.Fatalf("100/100 CI [%v,%v]", lo, hi)
	}
	lo, hi = WilsonCI(0, 100)
	if lo != 0 || hi > 0.05 {
		t.Fatalf("0/100 CI [%v,%v]", lo, hi)
	}
}

func TestWilsonCIBracketsP(t *testing.T) {
	err := quick.Check(func(s, n uint8) bool {
		trials := int(n%100) + 1
		succ := int(s) % (trials + 1)
		lo, hi := WilsonCI(succ, trials)
		p := float64(succ) / float64(trials)
		return lo <= p+1e-12 && hi >= p-1e-12 && lo >= 0 && hi <= 1
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0=%v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Fatalf("q1=%v", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("median=%v", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Fatalf("q25=%v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile not NaN")
	}
	// Input must not be reordered.
	if xs[0] != 5 {
		t.Fatal("Quantile mutated input")
	}
}
