package sops

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"sops/internal/core"
	"sops/internal/lattice"
	"sops/internal/psys"
	"sops/internal/snapbin"
)

// diagonalString returns n particles on a (1,−1) line, alternating colors:
// a connected configuration spanning n cells along both axes, the widest
// bounding box a connected configuration can have.
func diagonalString(n int) []psys.Particle {
	out := make([]psys.Particle, n)
	for i := range out {
		out[i] = psys.Particle{Pos: lattice.Point{Q: i, R: -i}, Color: psys.Color(i % 2)}
	}
	return out
}

// TestDiagonalStringRunsAndRestores: a System built on a connected
// 100-particle diagonal string runs with clean invariants, and its JSON
// and sealed binary checkpoints, taken on the string itself, restore to
// systems that continue the same trajectory.
func TestDiagonalStringRunsAndRestores(t *testing.T) {
	cfg, err := psys.NewFrom(diagonalString(100))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewFromConfig(cfg, Options{Lambda: 4, Gamma: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	js, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var sealed bytes.Buffer
	if err := sys.WriteCheckpointTo(&sealed); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Restore(js, nil)
	if err != nil {
		t.Fatal(err)
	}
	fromBinary, err := Restore(sealed.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	systems := map[string]*System{"original": sys, "json": fromJSON, "binary": fromBinary}
	for segment := 0; segment < 10; segment++ {
		for name, s := range systems {
			s.RunSteps(10_000)
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%s after %d steps: %v", name, s.Steps(), err)
			}
		}
	}
	for name, s := range systems {
		if s.Stats() != sys.Stats() || !s.Config().Equal(sys.Config()) {
			t.Fatalf("%s: stats %+v, original %+v; same configuration %v",
				name, s.Stats(), sys.Stats(), s.Config().Equal(sys.Config()))
		}
	}
	if sys.Stats().Moves == 0 {
		t.Fatal("the chain never moved")
	}
}

// TestSpreadInputFailsNamed: two particles 2³⁰ cells apart cannot fit the
// dense window, and every builder of a configuration from input reports
// psys.ErrSpread instead of panicking.
func TestSpreadInputFailsNamed(t *testing.T) {
	far := lattice.Point{Q: 1 << 30}
	spread := []psys.Particle{{Pos: lattice.Point{}, Color: 0}, {Pos: far, Color: 1}}
	spreadJSON := fmt.Sprintf(`{"particles":[{"q":0,"r":0,"color":0},{"q":%d,"r":%d,"color":1}]}`, far.Q, far.R)

	// A valid two-particle checkpoint to graft the spread configuration
	// into, in both formats.
	pair, err := psys.NewFrom([]psys.Particle{spread[0], {Pos: lattice.Point{Q: 1}, Color: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewFromConfig(pair, Options{Lambda: 4, Gamma: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	js, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatal(err)
	}
	doc["config"] = json.RawMessage(spreadJSON)
	doc["order"] = json.RawMessage(fmt.Sprintf(`[[0,0],[%d,%d]]`, far.Q, far.R))
	spreadCheckpoint, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := spreadFrame()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func() error{
		"psys.NewFrom": func() error {
			_, err := psys.NewFrom(spread)
			return err
		},
		"Config.UnmarshalJSON": func() error {
			return new(psys.Config).UnmarshalJSON([]byte(spreadJSON))
		},
		"Restore JSON checkpoint": func() error {
			_, err := Restore(spreadCheckpoint, nil)
			return err
		},
		"Restore snapbin frame": func() error {
			_, err := Restore(frame, nil)
			return err
		},
	}
	for name, build := range cases {
		if err := build(); !errors.Is(err, psys.ErrSpread) {
			t.Errorf("%s: err %v, want psys.ErrSpread", name, err)
		}
	}
}

// spreadFrame builds a bare snapbin checkpoint frame holding one particle
// at the origin and one 2³⁰ cells east of it with the wire primitives. It
// encodes a one-particle checkpoint and reuses its header, scalar fields,
// rng state and tile plane, rewriting the configuration block as two tile
// records 2²⁴ tiles apart.
func spreadFrame() ([]byte, error) {
	single, err := psys.NewFrom([]psys.Particle{{Pos: lattice.Point{}, Color: 0}})
	if err != nil {
		return nil, err
	}
	var enc snapbin.Encoder
	one, err := enc.EncodeCheckpoint(&core.Checkpoint{
		Params: core.Params{Lambda: 4, Gamma: 4, Seed: 1}, Rng: make([]byte, 32), Config: single,
	})
	if err != nil {
		return nil, err
	}
	h, err := snapbin.ParseHeader(one)
	if err != nil {
		return nil, err
	}
	// Body: λ, γ, flags, seed, moves, swaps, rejected, rng, then the
	// configuration block — numColors, tile count 1, ΔTQ 0, ΔTR 0 — the
	// tile's plane, and the trailing no-order byte.
	block := snapbin.HeaderSize + 8 + 8 + 1 + 8*4 + h.RngLen
	plane := one[block+4 : len(one)-1]
	h.N = 2
	out := snapbin.AppendHeader(nil, h)
	out = append(out, one[snapbin.HeaderSize:block+1]...)
	out = snapbin.AppendUvarint(out, 2)
	out = snapbin.AppendVarint(out, 0)
	out = snapbin.AppendVarint(out, 0)
	out = append(out, plane...)
	out = snapbin.AppendVarint(out, 1<<24)
	out = snapbin.AppendVarint(out, 0)
	out = append(out, plane...)
	return append(out, 0), nil
}
