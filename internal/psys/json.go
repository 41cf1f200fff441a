package psys

import (
	"encoding/json"
	"fmt"

	"sops/internal/lattice"
)

// particleJSON is the wire form of one particle.
type particleJSON struct {
	Q     int   `json:"q"`
	R     int   `json:"r"`
	Color Color `json:"color"`
}

// configJSON is the wire form of a configuration.
type configJSON struct {
	Particles []particleJSON `json:"particles"`
}

// MarshalJSON encodes the configuration as a list of particles in canonical
// point order, so equal configurations (same arrangement) produce identical
// bytes.
func (c *Config) MarshalJSON() ([]byte, error) {
	wire := configJSON{Particles: make([]particleJSON, 0, c.N())}
	for _, pt := range c.Particles() {
		wire.Particles = append(wire.Particles, particleJSON{
			Q: pt.Pos.Q, R: pt.Pos.R, Color: pt.Color,
		})
	}
	return json.Marshal(wire)
}

// UnmarshalJSON replaces the configuration with the encoded one, rebuilding
// all derived statistics through NewFrom. It fails on duplicate positions,
// out-of-range colors or particles too far apart for the window budget
// (ErrSpread), and leaves the receiver unchanged on error.
func (c *Config) UnmarshalJSON(data []byte) error {
	var wire configJSON
	if err := json.Unmarshal(data, &wire); err != nil {
		return fmt.Errorf("psys: decode configuration: %w", err)
	}
	particles := make([]Particle, len(wire.Particles))
	for i, p := range wire.Particles {
		particles[i] = Particle{Pos: lattice.Point{Q: p.Q, R: p.R}, Color: p.Color}
	}
	fresh, err := NewFrom(particles)
	if err != nil {
		return fmt.Errorf("psys: decode configuration: %w", err)
	}
	*c = *fresh
	return nil
}
