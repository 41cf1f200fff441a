package core

import (
	"encoding/json"
	"fmt"

	"sops/internal/lattice"
	"sops/internal/psys"
)

// Checkpoint is a serializable snapshot of a chain mid-run: configuration,
// parameters, statistics and the exact random-generator state, so a resumed
// chain continues the identical trajectory.
type Checkpoint struct {
	Params Params `json:"params"`
	Stats  Stats  `json:"stats"`
	// Rng is the generator state in rng.Source's textual codec (64 hex
	// digits), recording the exact stream position.
	Rng    string       `json:"rngState"`
	Config *psys.Config `json:"config"`
	// Order is the chain's internal particle-selection order (the slot
	// list, as points). Uniform particle choice draws an index into this
	// list, so trajectory-exact resumption must preserve it.
	Order [][2]int `json:"order"`
	// Model and Couplings identify the dynamics for non-separation chains.
	// Both are omitted for the separation model — its couplings live in
	// Params — so separation checkpoints are byte-identical to pre-registry
	// documents, and documents without the fields resume as separation.
	// Scheduled models carry no schedule state here: effective couplings
	// are a pure function of Couplings and Stats.Steps, recomputed on
	// resume.
	Model     string    `json:"model,omitempty"`
	Couplings []float64 `json:"couplings,omitempty"`
}

// Checkpoint captures the chain's complete state.
func (c *Chain) Checkpoint() (*Checkpoint, error) {
	state, err := c.rand.MarshalText()
	if err != nil {
		return nil, fmt.Errorf("core: serialize rng: %w", err)
	}
	order := make([][2]int, len(c.slots))
	win := c.cfg.Window()
	for i, s := range c.slots {
		p := win.PointAt(int(s))
		order[i] = [2]int{p.Q, p.R}
	}
	cp := &Checkpoint{
		Params: c.params,
		Stats:  c.stats,
		Rng:    string(state),
		Config: c.Snapshot(),
		Order:  order,
	}
	if c.rule.model != Separation {
		cp.Model = c.rule.model.Name()
		cp.Couplings = c.Couplings()
	}
	return cp, nil
}

// MarshalJSON encodes the checkpoint (Params is flat; the rng state is
// base64 via encoding/json's []byte handling).
func (cp *Checkpoint) MarshalJSON() ([]byte, error) {
	type alias Checkpoint // avoid recursion
	return json.Marshal((*alias)(cp))
}

// UnmarshalJSON decodes a checkpoint.
func (cp *Checkpoint) UnmarshalJSON(data []byte) error {
	type alias Checkpoint
	return json.Unmarshal(data, (*alias)(cp))
}

// Resume reconstructs a chain from a checkpoint. The resumed chain
// continues the exact trajectory of the checkpointed one: identical future
// states and statistics.
func Resume(cp *Checkpoint) (*Chain, error) {
	if cp.Config == nil {
		return nil, fmt.Errorf("core: checkpoint has no configuration")
	}
	model, err := LookupModel(cp.Model)
	if err != nil {
		return nil, err
	}
	coup := cp.Couplings
	if cp.Model == "" || cp.Model == "separation" {
		coup = []float64{cp.Params.Lambda, cp.Params.Gamma}
	}
	ch, err := NewWithModel(cp.Config.Clone(), cp.Params, model, coup)
	if err != nil {
		return nil, err
	}
	if err := ch.rand.UnmarshalText([]byte(cp.Rng)); err != nil {
		return nil, fmt.Errorf("core: restore rng: %w", err)
	}
	if len(cp.Order) > 0 {
		if len(cp.Order) != ch.N() {
			return nil, fmt.Errorf("core: checkpoint order has %d entries for %d particles", len(cp.Order), ch.N())
		}
		// The chain's configuration is connected (New verified it), so every
		// occupied node indexes into the dense storage window; a window-sized
		// bitmap detects duplicates without a map.
		win := ch.cfg.Window()
		seen := make([]bool, win.Area())
		for i, qr := range cp.Order {
			p := lattice.Point{Q: qr[0], R: qr[1]}
			if !ch.cfg.Occupied(p) {
				return nil, fmt.Errorf("core: checkpoint order lists vacant node %v", p)
			}
			j := win.Index(p)
			if seen[j] {
				return nil, fmt.Errorf("core: checkpoint order repeats node %v", p)
			}
			seen[j] = true
			ch.slots[i] = int32(j)
		}
	}
	ch.stats = cp.Stats
	if ch.sched != nil {
		// Effective couplings are a function of the absolute step count,
		// which was just restored: recompute them so the resumed chain's
		// acceptance tables match the checkpointed chain's exactly.
		ch.retune()
	}
	return ch, nil
}

// SetParams replaces the chain's bias parameters mid-run, keeping the
// configuration, statistics and random stream. This makes the chain
// time-inhomogeneous — useful for annealing schedules that ramp γ up to
// escape the metastability visible in long simulation runs. The stationary
// characterization of Lemma 9 applies only while parameters are held fixed.
func (c *Chain) SetParams(params Params) error {
	if c.rule.model != Separation {
		return fmt.Errorf("core: SetParams applies only to the separation model (chain runs %q); use SetCouplings", c.rule.model.Name())
	}
	if err := params.Validate(); err != nil {
		return err
	}
	c.params = params
	c.coup[0], c.coup[1] = params.Lambda, params.Gamma
	c.retune()
	return nil
}

// SetCouplings replaces the chain's full coupling vector mid-run, keeping
// the configuration, statistics and random stream, and rebuilding the
// acceptance tables — SetParams generalized to any model. For scheduled
// models the new nominal couplings take effect through the schedule.
func (c *Chain) SetCouplings(coup []float64) error {
	if err := ValidateCouplings(c.rule.model, coup); err != nil {
		return err
	}
	copy(c.coup, coup)
	c.params.Lambda, c.params.Gamma = lambdaGamma(c.rule.model, c.coup)
	c.retune()
	return nil
}
