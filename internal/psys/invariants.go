package psys

import "fmt"

// Names of the auditable invariant properties, as reported in
// InvariantError.Property.
const (
	InvStorage   = "storage"       // window layout invariants
	InvOccupancy = "occupancy"     // particle/color counts agree with the stored occupancy
	InvEdges     = "edges"         // cached e(σ) and a(σ) agree with a recount
	InvConnected = "connectivity"  // the configuration is connected
	InvHoleFree  = "hole-freeness" // the configuration has no holes
	InvPerimeter = "perimeter"     // e = 3n − p − 3 against the boundary walk
)

// InvariantError reports a violated configuration invariant. Property is
// one of the Inv* constants; Detail describes the observed inconsistency.
type InvariantError struct {
	Property string
	Detail   string
}

// Error implements the error interface.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("psys: invariant %q violated: %s", e.Property, e.Detail)
}

// CheckCounts audits the configuration's internal bookkeeping: the storage
// layout invariant (every particle interior to the window), the particle
// count, per-color counts, and cached edge statistics — all against a full
// recount of the raw storage, deliberately not trusting any cached field.
// It applies to any configuration, connected or not, and returns a
// structured *InvariantError naming the first violated property.
func (c *Config) CheckCounts() error {
	var colors [MaxColors]int
	stored, edges, hom := 0, 0, 0
	for i, v := range c.cells {
		if v == 0 {
			continue
		}
		p, col := c.win.PointAt(i), Color(v-1)
		if !c.win.Interior(p) {
			return &InvariantError{InvStorage,
				fmt.Sprintf("particle at %v on the window border ring", p)}
		}
		if col >= MaxColors {
			return &InvariantError{InvOccupancy,
				fmt.Sprintf("node %v has out-of-range color %d", p, col)}
		}
		stored++
		colors[col]++
		for _, nb := range p.Neighbors() {
			if nc, ok := c.colorAt(nb); ok {
				edges++ // each edge visited from both endpoints
				if nc == col {
					hom++
				}
			}
		}
	}
	if stored != c.n {
		return &InvariantError{InvOccupancy,
			fmt.Sprintf("n=%d but storage holds %d nodes", c.n, stored)}
	}
	if colors != c.colorCount {
		return &InvariantError{InvOccupancy,
			fmt.Sprintf("cached color counts %v, recounted %v", c.colorCount, colors)}
	}
	if edges%2 != 0 || hom%2 != 0 {
		return &InvariantError{InvEdges,
			fmt.Sprintf("asymmetric adjacency: directed edges %d, homogeneous %d", edges, hom)}
	}
	if edges/2 != c.edges || hom/2 != c.hom {
		return &InvariantError{InvEdges,
			fmt.Sprintf("cached e=%d a=%d, recounted e=%d a=%d", c.edges, c.hom, edges/2, hom/2)}
	}
	return nil
}

// CheckInvariants audits the full set of properties Markov chain M and the
// distributed runtime preserve (Lemma 6 and the movement Properties 4/5):
// internal count and storage consistency, connectivity, hole-freeness, and
// the edge/perimeter identity e = 3n − p − 3 with p computed independently
// by the boundary walk. It returns nil for a valid quiescent configuration
// and a structured *InvariantError naming the first violated property
// otherwise. Cost is O(n + area of the bounding box); intended for audit
// cadences, not per-step use.
func (c *Config) CheckInvariants() error {
	if err := c.CheckCounts(); err != nil {
		return err
	}
	if c.n == 0 {
		return nil
	}
	if !c.Connected() {
		return &InvariantError{InvConnected,
			fmt.Sprintf("%d particles not connected", c.n)}
	}
	if !c.HoleFree() {
		return &InvariantError{InvHoleFree, "configuration encloses a hole"}
	}
	// Valid only for connected hole-free configurations, so checked last.
	if p := c.PerimeterWalk(); c.edges != 3*c.n-p-3 {
		return &InvariantError{InvPerimeter,
			fmt.Sprintf("e=%d, n=%d, boundary walk p=%d: e ≠ 3n−p−3=%d",
				c.edges, c.n, p, 3*c.n-p-3)}
	}
	return nil
}
