package core

// Energy returns the Hamiltonian of the chain's current configuration
// under its model, at the effective couplings in force.
func (c *Chain) Energy() float64 { return c.rule.model.Energy(c.cfg, c.coupNow) }

// Energy returns the Hamiltonian of the executor's current configuration
// under its model, at the effective couplings in force.
func (s *Sharded) Energy() float64 { return s.rule.model.Energy(s.store, s.coupNow) }
