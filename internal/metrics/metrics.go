// Package metrics quantifies compression and separation of particle-system
// configurations: α-compression (perimeter relative to the minimum
// possible), (β,δ)-separation in the sense of Definition 3, monochromatic
// cluster structure, and the four-phase classification used to reproduce
// the paper's Figure 3 (compressed/expanded × separated/integrated).
package metrics

import (
	"math"

	"sops/internal/lattice"
	"sops/internal/psys"
)

// Compression returns p(σ)/p_min(n), the compression factor α achieved by
// the configuration. Values near 1 are maximally compressed. Configurations
// with fewer than two particles report 1.
func Compression(cfg *psys.Config) float64 {
	pm := psys.MinPerimeter(cfg.N())
	if pm == 0 {
		return 1
	}
	return float64(cfg.Perimeter()) / float64(pm)
}

// IsCompressed reports whether the configuration is α-compressed:
// p(σ) ≤ α·p_min(n).
func IsCompressed(cfg *psys.Config, alpha float64) bool {
	return float64(cfg.Perimeter()) <= alpha*float64(psys.MinPerimeter(cfg.N()))
}

// BoundaryEdges returns the number of configuration edges with exactly one
// endpoint in the particle set r (Definition 3, condition 1).
func BoundaryEdges(cfg *psys.Config, r map[lattice.Point]bool) int {
	count := 0
	for p := range r {
		for _, nb := range p.Neighbors() {
			if !cfg.Occupied(nb) {
				continue
			}
			if !r[nb] {
				count++
			}
		}
	}
	return count
}

// CheckRegion reports whether the particle subset r certifies that cfg is
// (β,δ)-separated for color c per Definition 3: at most β√n boundary edges,
// density of color c inside r at least 1−δ, and density of color c outside
// r at most δ.
func CheckRegion(cfg *psys.Config, r map[lattice.Point]bool, c psys.Color, beta, delta float64) bool {
	n := cfg.N()
	if BoundaryEdges(cfg, r) > int(beta*math.Sqrt(float64(n))) {
		return false
	}
	inside, insideC := 0, 0
	for p := range r {
		if col, ok := cfg.At(p); ok {
			inside++
			if col == c {
				insideC++
			}
		}
	}
	outside := n - inside
	outsideC := cfg.ColorCount(c) - insideC
	if inside > 0 && float64(insideC) < (1-delta)*float64(inside) {
		return false
	}
	if outside > 0 && float64(outsideC) > delta*float64(outside) {
		return false
	}
	return true
}

// IsSeparated reports whether the configuration is (β,δ)-separated
// (Definition 3) for some color, using certificate regions R that the
// paper's own analysis suggests: for each color c, the set of all particles
// of color c, and the unions of the largest monochromatic clusters of c.
// Definition 3 is existential in R, so a true result is exact; a false
// result means no certificate was found (the exact check is exponential —
// see Exact for small systems).
func IsSeparated(cfg *psys.Config, beta, delta float64) bool {
	for c := psys.Color(0); int(c) < cfg.NumColors(); c++ {
		if cfg.ColorCount(c) == 0 {
			continue
		}
		// Certificate 1: R = all particles of color c. Boundary edges are
		// then exactly the edges between color c and other colors, and both
		// density conditions hold trivially.
		all := make(map[lattice.Point]bool, cfg.ColorCount(c))
		for _, pt := range cfg.Particles() {
			if pt.Color == c {
				all[pt.Pos] = true
			}
		}
		if CheckRegion(cfg, all, c, beta, delta) {
			return true
		}
		// Certificate 2: unions of the largest monochromatic clusters of c,
		// adding clusters from largest to smallest. Tolerates δ-fraction
		// stragglers of color c outside the main region.
		clusters := Clusters(cfg, c)
		r := make(map[lattice.Point]bool)
		for _, cl := range clusters {
			for _, p := range cl {
				r[p] = true
			}
			if CheckRegion(cfg, r, c, beta, delta) {
				return true
			}
		}
	}
	return false
}

// Clusters returns the connected monochromatic clusters of color c, largest
// first.
func Clusters(cfg *psys.Config, c psys.Color) [][]lattice.Point {
	visited := make(map[lattice.Point]bool)
	var out [][]lattice.Point
	for _, pt := range cfg.Particles() {
		if pt.Color != c || visited[pt.Pos] {
			continue
		}
		var cluster []lattice.Point
		stack := []lattice.Point{pt.Pos}
		visited[pt.Pos] = true
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cluster = append(cluster, p)
			for _, nb := range p.Neighbors() {
				if visited[nb] {
					continue
				}
				if col, ok := cfg.At(nb); ok && col == c {
					visited[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		out = append(out, cluster)
	}
	// Largest first (insertion sort; cluster counts are small).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && len(out[j]) > len(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// LargestClusterFraction returns the fraction of color-c particles lying in
// their largest monochromatic cluster, a standard order parameter for
// separation (1 means all color-c particles form one cluster).
func LargestClusterFraction(cfg *psys.Config, c psys.Color) float64 {
	total := cfg.ColorCount(c)
	if total == 0 {
		return 0
	}
	clusters := Clusters(cfg, c)
	if len(clusters) == 0 {
		return 0
	}
	return float64(len(clusters[0])) / float64(total)
}

// SegregationIndex returns 1 − h/E[h_random]: 0 for a well-mixed coloring,
// approaching 1 for full separation, where E[h_random] = e·2·Σ_{i<j} f_i f_j
// is the expected heterogeneous edge count if colors were assigned to the
// occupied sites uniformly at random. Negative values indicate
// anti-separation (more heterogeneous contact than random).
func SegregationIndex(cfg *psys.Config) float64 { return segregationOf(cfg) }

// EdgeCounts is the read surface the segregation index needs; both
// psys.Config and psys.TileStore satisfy it, so the dense and tiled
// paths share one float arithmetic sequence and agree bit for bit.
type EdgeCounts interface {
	N() int
	Edges() int
	HetEdges() int
	ColorCount(psys.Color) int
	NumColors() int
}

// SegregationIndexStore is SegregationIndex over a tile store, using its
// O(1) cached counts.
func SegregationIndexStore(ts *psys.TileStore) float64 { return segregationOf(ts) }

func segregationOf(cfg EdgeCounts) float64 {
	var counts [psys.MaxColors]int
	k := cfg.NumColors()
	for i := 0; i < k; i++ {
		counts[i] = cfg.ColorCount(psys.Color(i))
	}
	return SegregationDerived(cfg.Edges(), cfg.HetEdges(), cfg.N(), counts[:k])
}

// SegregationDerived computes the segregation index from its raw inputs:
// total and heterogeneous edge counts, the particle total, and the
// per-color particle counts. It is the single arithmetic sequence behind
// SegregationIndex and SegregationIndexStore, exposed so decoders holding
// only the counts (the binary trace codec) reproduce the index bit for
// bit.
func SegregationDerived(edges, hetEdges, n int, counts []int) float64 {
	if edges == 0 || n < 2 {
		return 0
	}
	// Probability a uniformly random pair of distinct particles has
	// different colors: Σ_{i≠j} n_i n_j / (n(n-1)).
	cross := 0
	for i := 0; i < len(counts); i++ {
		for j := i + 1; j < len(counts); j++ {
			cross += counts[i] * counts[j]
		}
	}
	expected := float64(edges) * 2 * float64(cross) / float64(n*(n-1))
	if expected == 0 {
		return 0
	}
	return 1 - float64(hetEdges)/expected
}

// Exact reports whether any subset R of particles certifies
// (β,δ)-separation for color c, by exhaustive search over all 2^n subsets.
// Exponential; intended for n ≤ 20 in tests validating IsSeparated.
func Exact(cfg *psys.Config, c psys.Color, beta, delta float64) bool {
	pts := cfg.Points()
	n := len(pts)
	if n > 24 {
		panic("metrics: Exact called with more than 24 particles")
	}
	r := make(map[lattice.Point]bool, n)
	for mask := 0; mask < 1<<uint(n); mask++ {
		for k := range r {
			delete(r, k)
		}
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				r[pts[i]] = true
			}
		}
		if CheckRegion(cfg, r, c, beta, delta) {
			return true
		}
	}
	return false
}
