// Package schelling implements the Schelling segregation model on the
// triangular lattice, the classical point of comparison the paper draws on
// ([33, 34] and the distributed variant [29]): agents of two types occupy a
// fixed bounded region with vacancies, and an agent that is unhappy — too
// few of its neighbors share its type — relocates to a random vacant cell.
//
// The contrast with the paper's algorithm is the point of this baseline:
// Schelling dynamics assume an external fixed habitat, allow teleporting
// relocations, and conserve neither connectivity nor shape, whereas the
// self-organizing particle system moves only along the lattice under
// strictly local rules and additionally compresses. Both exhibit
// segregation from individual micro-motives.
package schelling

import (
	"errors"
	"fmt"

	"sops/internal/lattice"
	"sops/internal/psys"
	"sops/internal/rng"
)

// Model is a Schelling segregation instance on a hexagonal region.
type Model struct {
	cells     map[lattice.Point]psys.Color // occupied cells only
	vacant    []lattice.Point
	vacantIdx map[lattice.Point]int
	agents    []lattice.Point
	tolerance float64
	rand      *rng.Source
	steps     uint64
	moves     uint64
}

// ErrTooCrowded is returned when the agents do not fit the region with at
// least one vacancy.
var ErrTooCrowded = errors.New("schelling: region too small for agents plus a vacancy")

// New builds a model on the hexagon of the given radius with counts[i]
// agents of color i placed uniformly at random, requiring at least one
// vacant cell. tolerance ∈ [0, 1] is the minimum fraction of like-typed
// occupied neighbors an agent needs to be happy.
func New(radius int, counts []int, tolerance float64, seed uint64) (*Model, error) {
	if tolerance < 0 || tolerance > 1 {
		return nil, fmt.Errorf("schelling: tolerance %v outside [0, 1]", tolerance)
	}
	if len(counts) > psys.MaxColors {
		return nil, psys.ErrColorRange
	}
	total := 0
	for i, k := range counts {
		if k < 0 {
			return nil, fmt.Errorf("schelling: negative count for color %d", i)
		}
		total += k
	}
	if total == 0 {
		return nil, errors.New("schelling: no agents")
	}
	sites := lattice.Hexagon(lattice.Point{}, radius)
	if total >= len(sites) {
		return nil, ErrTooCrowded
	}
	r := rng.New(seed)
	r.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
	m := &Model{
		cells:     make(map[lattice.Point]psys.Color, total),
		vacantIdx: make(map[lattice.Point]int),
		tolerance: tolerance,
		rand:      r,
	}
	i := 0
	for col, k := range counts {
		for j := 0; j < k; j++ {
			m.cells[sites[i]] = psys.Color(col)
			m.agents = append(m.agents, sites[i])
			i++
		}
	}
	for ; i < len(sites); i++ {
		m.vacantIdx[sites[i]] = len(m.vacant)
		m.vacant = append(m.vacant, sites[i])
	}
	return m, nil
}

// happyAt reports whether an agent of color col at p meets the tolerance:
// among its occupied neighbors, the like-typed fraction is at least the
// tolerance (agents with no occupied neighbors are happy).
func (m *Model) happyAt(p lattice.Point, col psys.Color) bool {
	same, occupied := 0, 0
	for _, nb := range p.Neighbors() {
		if c, ok := m.cells[nb]; ok {
			occupied++
			if c == col {
				same++
			}
		}
	}
	if occupied == 0 {
		return true
	}
	return float64(same) >= m.tolerance*float64(occupied)
}

// Step activates a uniformly random agent; if it is unhappy it relocates to
// a uniformly random vacant cell. Reports whether a relocation happened.
func (m *Model) Step() bool {
	m.steps++
	ai := m.rand.Intn(len(m.agents))
	p := m.agents[ai]
	col := m.cells[p]
	if m.happyAt(p, col) {
		return false
	}
	vi := m.rand.Intn(len(m.vacant))
	dest := m.vacant[vi]
	// Swap occupancy: p becomes vacant, dest becomes occupied.
	delete(m.cells, p)
	m.cells[dest] = col
	m.agents[ai] = dest
	m.vacant[vi] = p
	delete(m.vacantIdx, dest)
	m.vacantIdx[p] = vi
	m.moves++
	return true
}

// Run performs steps activations.
func (m *Model) Run(steps uint64) {
	for i := uint64(0); i < steps; i++ {
		m.Step()
	}
}

// Steps returns the number of activations.
func (m *Model) Steps() uint64 { return m.steps }

// Moves returns the number of relocations.
func (m *Model) Moves() uint64 { return m.moves }

// HappyFraction returns the fraction of agents currently happy.
func (m *Model) HappyFraction() float64 {
	happy := 0
	for _, p := range m.agents {
		if m.happyAt(p, m.cells[p]) {
			happy++
		}
	}
	return float64(happy) / float64(len(m.agents))
}

// Config materializes the current occupancy as a particle-system
// configuration (possibly disconnected — Schelling dynamics do not preserve
// connectivity), for reuse of the metrics package.
func (m *Model) Config() (*psys.Config, error) {
	particles := make([]psys.Particle, 0, len(m.cells))
	for p, col := range m.cells {
		particles = append(particles, psys.Particle{Pos: p, Color: col})
	}
	return psys.NewFrom(particles)
}
