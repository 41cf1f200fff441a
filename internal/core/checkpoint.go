package core

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"sops/internal/lattice"
	"sops/internal/psys"
	"sops/internal/rng"
)

// Checkpoint is a chain's complete state mid-run, held the way the chain
// holds it: configuration, parameters, statistics, the exact
// random-generator state and the particle-selection order, so a resumed
// chain continues the identical trajectory. It is the one checkpoint state
// of both wire formats: MarshalJSON/UnmarshalJSON are the JSON document's
// codec, and snapbin's EncodeCheckpoint/DecodeCheckpoint the binary
// frame's.
type Checkpoint struct {
	Params Params
	Stats  Stats
	// Rng is the generator state, the 32 bytes rng.Buffered.AppendState
	// writes, recording the exact stream position.
	Rng    []byte
	Config *psys.Config
	// Slots is the chain's particle-selection order, as indices into
	// Config.Window(). Uniform particle choice draws an index into this
	// list, so trajectory-exact resumption must preserve it; an empty
	// list resumes in canonical point order.
	Slots []int32
	// Model and Couplings identify the dynamics for non-separation chains.
	// Both are empty for the separation model — its couplings live in
	// Params — so separation checkpoints are byte-identical to
	// pre-registry ones, and checkpoints without them resume as
	// separation. Scheduled models carry no schedule state here: effective
	// couplings are a pure function of Couplings and Stats.Steps,
	// recomputed on resume.
	Model     string
	Couplings []float64
}

// ErrBadCheckpoint is returned by Resume for a checkpoint whose
// configuration, generator state or selection order cannot be resumed.
var ErrBadCheckpoint = errors.New("core: bad checkpoint")

// Checkpoint fills cp with a view of the chain's complete state. The
// configuration, slot list and couplings are the chain's own — read-only,
// and valid only until the chain next steps — and the generator state is
// appended into cp.Rng's storage, so a writer that reuses cp allocates
// nothing.
func (c *Chain) Checkpoint(cp *Checkpoint) {
	cp.Params, cp.Stats = c.params, c.stats
	cp.Rng = c.rand.AppendState(cp.Rng[:0])
	cp.Config, cp.Slots = c.cfg, c.slots
	cp.Model, cp.Couplings = "", nil
	if c.rule.model != Separation {
		cp.Model, cp.Couplings = c.rule.model.Name(), c.coup
	}
}

// OrderSlot returns the slot of selection-order point p over window win,
// or -1, which Resume rejects, when p lies outside win. The decoders of
// both wire formats turn an order's points into Checkpoint.Slots with it.
func OrderSlot(win lattice.Window, p lattice.Point) int32 {
	if !win.Contains(p) {
		return -1
	}
	return int32(win.Index(p))
}

// checkpointJSON is the JSON document of a Checkpoint: the generator
// state as 64 hex digits, greppable and diffable, and the selection order
// as [q, r] points.
type checkpointJSON struct {
	Params    Params       `json:"params"`
	Stats     Stats        `json:"stats"`
	Rng       string       `json:"rngState"`
	Config    *psys.Config `json:"config"`
	Order     [][2]int     `json:"order"`
	Model     string       `json:"model,omitempty"`
	Couplings []float64    `json:"couplings,omitempty"`
}

// MarshalJSON encodes the checkpoint as its JSON document.
func (cp *Checkpoint) MarshalJSON() ([]byte, error) {
	doc := checkpointJSON{
		Params:    cp.Params,
		Stats:     cp.Stats,
		Rng:       hex.EncodeToString(cp.Rng),
		Config:    cp.Config,
		Model:     cp.Model,
		Couplings: cp.Couplings,
	}
	if cp.Slots != nil {
		win := cp.Config.Window()
		doc.Order = make([][2]int, len(cp.Slots))
		for i, s := range cp.Slots {
			p := win.PointAt(int(s))
			doc.Order[i] = [2]int{p.Q, p.R}
		}
	}
	return json.Marshal(&doc)
}

// UnmarshalJSON decodes a checkpoint document, turning its order points
// into slots over the decoded configuration's window. Whether the state
// can be resumed is Resume's to check.
func (cp *Checkpoint) UnmarshalJSON(data []byte) error {
	var doc checkpointJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	state, err := hex.DecodeString(doc.Rng)
	if err != nil {
		return fmt.Errorf("core: checkpoint rng state: %w", err)
	}
	*cp = Checkpoint{
		Params:    doc.Params,
		Stats:     doc.Stats,
		Rng:       state,
		Config:    doc.Config,
		Model:     doc.Model,
		Couplings: doc.Couplings,
	}
	if doc.Order != nil && doc.Config != nil {
		win := doc.Config.Window()
		cp.Slots = make([]int32, len(doc.Order))
		for i, qr := range doc.Order {
			cp.Slots[i] = OrderSlot(win, lattice.Point{Q: qr[0], R: qr[1]})
		}
	}
	return nil
}

// Resume reconstructs a chain from a checkpoint, taking ownership of
// cp.Config. The resumed chain continues the exact trajectory of the
// checkpointed one: identical future states and statistics. A
// configuration, generator state or selection order that cannot be resumed
// fails with ErrBadCheckpoint; bad couplings fail with ErrBadCoupling.
func Resume(cp *Checkpoint) (*Chain, error) {
	if cp.Config == nil {
		return nil, fmt.Errorf("%w: no configuration", ErrBadCheckpoint)
	}
	model, err := LookupModel(cp.Model)
	if err != nil {
		return nil, err
	}
	var state rng.Source
	if err := state.UnmarshalBinary(cp.Rng); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadCheckpoint, err)
	}
	coup := cp.Couplings
	if cp.Model == "" || cp.Model == "separation" {
		coup = []float64{cp.Params.Lambda, cp.Params.Gamma}
	}
	ch, err := NewWithModel(cp.Config, cp.Params, model, coup)
	if err != nil {
		return nil, err
	}
	ch.rand.SetState(&state)
	if len(cp.Slots) > 0 {
		if err := ch.setOrder(cp.Slots); err != nil {
			return nil, err
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

// setOrder replaces the chain's particle list with slots, which must name
// every particle's cell exactly once.
func (c *Chain) setOrder(slots []int32) error {
	if len(slots) != len(c.slots) {
		return fmt.Errorf("%w: order has %d entries for %d particles", ErrBadCheckpoint, len(slots), len(c.slots))
	}
	cells := c.cfg.Cells()
	seen := make([]bool, len(cells))
	for i, s := range slots {
		if s < 0 || int(s) >= len(cells) || cells[s] == 0 {
			return fmt.Errorf("%w: order entry %d is not a particle", ErrBadCheckpoint, i)
		}
		if seen[s] {
			return fmt.Errorf("%w: order repeats node %v", ErrBadCheckpoint, c.cfg.Window().PointAt(int(s)))
		}
		seen[s] = true
	}
	copy(c.slots, slots)
	return nil
}
