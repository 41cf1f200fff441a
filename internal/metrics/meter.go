package metrics

import (
	"sops/internal/lattice"
	"sops/internal/psys"
)

// Meter computes Snapshots repeatedly over a live configuration without
// allocating at steady state: the largest-cluster flood fill walks a
// scratch copy of the dense store's cell bytes by index
// (psys.Config.Cells), reused across captures, and the p_min(n) spiral
// construction is memoized per particle count. One Meter serves one
// chain; it is not safe for concurrent use.
type Meter struct {
	th Thresholds

	minPerimN int // particle count the memo is valid for (-1 = none)
	minPerimV int

	// Scratch for the dense flood fill: a copy of the store's cells,
	// cleared as the fill reaches them, and the fill's index stack.
	grid  []uint8
	stack []int32

	// Scratch for CaptureStore's tiled flood fill.
	storeVisited tileVisitedSet
	storeStack   []lattice.Point
}

// NewMeter returns a Meter classifying with the given thresholds.
func NewMeter(th Thresholds) *Meter {
	return &Meter{th: th, minPerimN: -1}
}

// minPerimeter is psys.MinPerimeter memoized on n. Chains preserve the
// particle count, so after the first capture this is a table lookup.
func (m *Meter) minPerimeter(n int) int {
	if n != m.minPerimN {
		m.minPerimN, m.minPerimV = n, psys.MinPerimeter(n)
	}
	return m.minPerimV
}

// largestClusterSize returns the size of the largest connected
// monochromatic cluster of color c, via a flood fill over the dense store's
// cell bytes by index, using reusable scratch: it scans the cells for
// particles of color c and steps to neighbors by the window's constant
// index offsets, which the vacant border ring keeps inside the store for
// every particle.
func (m *Meter) largestClusterSize(cfg *psys.Config, c psys.Color) int {
	// The fill runs on a scratch copy of the cells and clears each cell of
	// color c as it is reached, so the copy is its own visited set.
	grid := append(m.grid[:0], cfg.Cells()...)
	m.grid = grid
	offs := cfg.Window().NeighborOffsets()
	want := uint8(c) + 1
	best := 0
	for i, v := range grid {
		if v != want {
			continue
		}
		grid[i] = 0
		m.stack = append(m.stack[:0], int32(i))
		size := 0
		for len(m.stack) > 0 {
			j := int(m.stack[len(m.stack)-1])
			m.stack = m.stack[:len(m.stack)-1]
			size++
			for _, off := range offs {
				if k := j + off; grid[k] == want {
					grid[k] = 0
					m.stack = append(m.stack, int32(k))
				}
			}
		}
		if size > best {
			best = size
		}
	}
	return best
}

// largestClusterFraction mirrors LargestClusterFraction on the reusable
// scratch.
func (m *Meter) largestClusterFraction(cfg *psys.Config, c psys.Color) float64 {
	total := cfg.ColorCount(c)
	if total == 0 {
		return 0
	}
	return float64(m.largestClusterSize(cfg, c)) / float64(total)
}

// Capture computes the same Snapshot as the package-level Capture, without
// allocating once the scratch has warmed up at a fixed particle count.
func (m *Meter) Capture(cfg *psys.Config, steps uint64) Snapshot {
	n := cfg.N()
	perim := cfg.Perimeter()
	pm := m.minPerimeter(n)
	return m.snapshot(steps, n, perim, pm, cfg.Edges(), cfg.HomEdges(), cfg.HetEdges(),
		SegregationIndex(cfg), m.largestClusterFraction(cfg, 0))
}
