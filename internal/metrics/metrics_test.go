package metrics

import (
	"math"
	"testing"

	"sops/internal/core"
	"sops/internal/lattice"
	"sops/internal/psys"
)

func buildConfig(t *testing.T, parts []psys.Particle) *psys.Config {
	t.Helper()
	cfg, err := psys.NewFrom(parts)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// separatedSpiral builds an n-particle spiral whose first half is color 0
// and second half color 1 — compact and well separated.
func separatedSpiral(t *testing.T, n int) *psys.Config {
	t.Helper()
	cfg, err := core.InitialSeparated([]int{(n + 1) / 2, n / 2})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// stripedLine builds an alternating-color line: expanded and integrated.
func stripedLine(t *testing.T, n int) *psys.Config {
	t.Helper()
	parts := make([]psys.Particle, n)
	for i, p := range lattice.Line(lattice.Point{}, n) {
		parts[i] = psys.Particle{Pos: p, Color: psys.Color(i % 2)}
	}
	return buildConfig(t, parts)
}

func TestCompressionHexagon(t *testing.T) {
	cfg := buildConfig(t, monochromeParticles(lattice.Hexagon(lattice.Point{}, 4)))
	if a := Compression(cfg); math.Abs(a-1) > 1e-9 {
		t.Fatalf("hexagon compression %v, want 1", a)
	}
	if !IsCompressed(cfg, 1.0001) {
		t.Fatal("hexagon not 1-compressed")
	}
}

func monochromeParticles(pts []lattice.Point) []psys.Particle {
	out := make([]psys.Particle, len(pts))
	for i, p := range pts {
		out[i] = psys.Particle{Pos: p, Color: 0}
	}
	return out
}

func TestCompressionLine(t *testing.T) {
	cfg := buildConfig(t, monochromeParticles(lattice.Line(lattice.Point{}, 50)))
	if a := Compression(cfg); a < 3 {
		t.Fatalf("50-line compression %v, expected well above 3", a)
	}
	if IsCompressed(cfg, 3) {
		t.Fatal("line reported 3-compressed")
	}
}

func TestBoundaryEdges(t *testing.T) {
	// Two-particle system, R = one particle: the single edge crosses.
	a := lattice.Point{Q: 0, R: 0}
	b := lattice.Point{Q: 1, R: 0}
	cfg := buildConfig(t, []psys.Particle{{Pos: a, Color: 0}, {Pos: b, Color: 1}})
	if got := BoundaryEdges(cfg, map[lattice.Point]bool{a: true}); got != 1 {
		t.Fatalf("boundary edges = %d, want 1", got)
	}
	if got := BoundaryEdges(cfg, map[lattice.Point]bool{a: true, b: true}); got != 0 {
		t.Fatalf("boundary edges of full set = %d, want 0", got)
	}
	if got := BoundaryEdges(cfg, map[lattice.Point]bool{}); got != 0 {
		t.Fatalf("boundary edges of empty set = %d, want 0", got)
	}
}

func TestIsSeparatedOnSeparatedConfig(t *testing.T) {
	cfg := separatedSpiral(t, 50)
	if !IsSeparated(cfg, 2.5, 0.2) {
		t.Fatalf("block-colored spiral (h=%d, n=%d) not recognized as separated", cfg.HetEdges(), cfg.N())
	}
}

func TestIsSeparatedOnStripedConfig(t *testing.T) {
	cfg := stripedLine(t, 50)
	// Alternating line: h = 49 boundary edges for the all-c1 certificate,
	// far above β√n ≈ 17; cluster certificates are singletons.
	if IsSeparated(cfg, 2.5, 0.2) {
		t.Fatal("alternating line reported separated")
	}
}

func TestIsSeparatedMonochrome(t *testing.T) {
	cfg := buildConfig(t, monochromeParticles(lattice.Spiral(lattice.Point{}, 30)))
	// All one color: R = everything has zero boundary and density 1.
	if !IsSeparated(cfg, 1, 0.1) {
		t.Fatal("monochrome config not separated")
	}
}

func TestIsSeparatedMatchesExactSearch(t *testing.T) {
	// Compare the certificate-based check against exhaustive subset search
	// on small systems. IsSeparated is sound but may err toward false near
	// the β boundary; away from the boundary they must agree.
	cases := []struct {
		name        string
		cfg         *psys.Config
		beta, delta float64
		want        bool
	}{
		{"separated 12 generous beta", separatedSpiral(t, 12), 3.5, 0.2, true},
		{"striped 12", stripedLine(t, 12), 2.0, 0.2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exact := Exact(tc.cfg, 0, tc.beta, tc.delta) || Exact(tc.cfg, 1, tc.beta, tc.delta)
			got := IsSeparated(tc.cfg, tc.beta, tc.delta)
			if exact != tc.want {
				t.Fatalf("exhaustive=%v, expected %v (test expectation wrong)", exact, tc.want)
			}
			if got != exact {
				t.Fatalf("IsSeparated=%v, exhaustive=%v", got, exact)
			}
		})
	}
}

func TestIsSeparatedNeverFalsePositive(t *testing.T) {
	// Soundness: whenever IsSeparated says true on a small random config,
	// the exhaustive search must agree (the certificate is genuine).
	ch, err := core.New(mustInit(t, 6, 6), core.Params{Lambda: 3, Gamma: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		ch.Run(2000)
		cfg := ch.Snapshot()
		if IsSeparated(cfg, 1.5, 0.2) && !Exact(cfg, 0, 1.5, 0.2) && !Exact(cfg, 1, 1.5, 0.2) {
			t.Fatalf("certificate claimed separation that exhaustive search refutes")
		}
	}
}

func mustInit(t *testing.T, n0, n1 int) *psys.Config {
	t.Helper()
	cfg, err := core.Initial(core.LayoutSpiral, []int{n0, n1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestClusters(t *testing.T) {
	// Spiral of 10 with first 5 color 0 (contiguous) and rest color 1.
	cfg := separatedSpiral(t, 10)
	c0 := Clusters(cfg, 0)
	if len(c0) == 0 {
		t.Fatal("no clusters found")
	}
	total := 0
	for _, cl := range c0 {
		total += len(cl)
	}
	if total != cfg.ColorCount(0) {
		t.Fatalf("cluster particles %d != color count %d", total, cfg.ColorCount(0))
	}
	for i := 1; i < len(c0); i++ {
		if len(c0[i]) > len(c0[i-1]) {
			t.Fatal("clusters not sorted by size")
		}
	}
}

func TestLargestClusterFraction(t *testing.T) {
	cfg := separatedSpiral(t, 20)
	if f := LargestClusterFraction(cfg, 0); f != 1 {
		t.Fatalf("contiguous block cluster fraction %v, want 1", f)
	}
	striped := stripedLine(t, 20)
	if f := LargestClusterFraction(striped, 0); f != 0.1 {
		t.Fatalf("striped line cluster fraction %v, want 0.1", f)
	}
	if f := LargestClusterFraction(cfg, 5); f != 0 {
		t.Fatalf("absent color fraction %v, want 0", f)
	}
}

func TestSegregationIndex(t *testing.T) {
	sep := separatedSpiral(t, 50)
	mixed := stripedLine(t, 50)
	if s := SegregationIndex(sep); s < 0.5 {
		t.Fatalf("separated config segregation %v, want > 0.5", s)
	}
	if s := SegregationIndex(mixed); s > 0 {
		t.Fatalf("alternating line segregation %v, want <= 0 (anti-separated)", s)
	}
	mono := buildConfig(t, monochromeParticles(lattice.Spiral(lattice.Point{}, 10)))
	if s := SegregationIndex(mono); s != 0 {
		t.Fatalf("monochrome segregation %v, want 0", s)
	}
}

func TestClassify(t *testing.T) {
	th := DefaultThresholds()
	cases := []struct {
		name string
		cfg  *psys.Config
		want Phase
	}{
		{"compressed separated", separatedSpiral(t, 50), CompressedSeparated},
		{"expanded integrated", stripedLine(t, 50), ExpandedIntegrated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Classify(tc.cfg, th); got != tc.want {
				t.Fatalf("Classify = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestClassifyCompressedIntegrated(t *testing.T) {
	// A compact spiral with random colors: compressed but mixed.
	cfg := mustInit(t, 25, 25)
	if got := Classify(cfg, DefaultThresholds()); got != CompressedIntegrated {
		t.Fatalf("random compact spiral classified %v (h=%d, p=%d)", got, cfg.HetEdges(), cfg.Perimeter())
	}
}

func TestClassifyExpandedSeparated(t *testing.T) {
	// A long line, first half color 0, second half color 1: expanded,
	// single heterogeneous contact.
	parts := make([]psys.Particle, 40)
	for i, p := range lattice.Line(lattice.Point{}, 40) {
		col := psys.Color(0)
		if i >= 20 {
			col = 1
		}
		parts[i] = psys.Particle{Pos: p, Color: col}
	}
	cfg := buildConfig(t, parts)
	if got := Classify(cfg, DefaultThresholds()); got != ExpandedSeparated {
		t.Fatalf("half-and-half line classified %v", got)
	}
}

func TestPhaseString(t *testing.T) {
	for _, p := range []Phase{CompressedSeparated, CompressedIntegrated, ExpandedSeparated, ExpandedIntegrated} {
		if p.String() == "" {
			t.Fatal("empty phase name")
		}
	}
	if Phase(9).String() != "Phase(9)" {
		t.Fatal("unknown phase formatting")
	}
}

func TestCaptureConsistency(t *testing.T) {
	cfg := separatedSpiral(t, 30)
	s := Capture(cfg, 123, DefaultThresholds())
	if s.Steps != 123 || s.N != 30 {
		t.Fatalf("snapshot header wrong: %+v", s)
	}
	if s.Edges != s.HomEdges+s.HetEdges {
		t.Fatalf("snapshot edges inconsistent: %+v", s)
	}
	if s.Perimeter != cfg.Perimeter() || s.MinPerimeter != psys.MinPerimeter(30) {
		t.Fatalf("snapshot perimeter wrong: %+v", s)
	}
	if math.Abs(s.Alpha-float64(s.Perimeter)/float64(s.MinPerimeter)) > 1e-12 {
		t.Fatalf("snapshot alpha inconsistent: %+v", s)
	}
}

func BenchmarkIsSeparated(b *testing.B) {
	cfg, err := core.InitialSeparated([]int{50, 50})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IsSeparated(cfg, 2.5, 0.2)
	}
}

func BenchmarkClassify(b *testing.B) {
	cfg, err := core.Initial(core.LayoutSpiral, []int{50, 50}, 1)
	if err != nil {
		b.Fatal(err)
	}
	th := DefaultThresholds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Classify(cfg, th)
	}
}
