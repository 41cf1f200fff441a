package sops

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"sops/internal/core"
	"sops/internal/seal"
	"sops/internal/snapbin"
)

// checkpointsOf runs a System built from opts for steps steps and returns
// its checkpoint in both formats: the JSON document, decoded into a
// generic map for editing, and the bare binary frame.
func checkpointsOf(t *testing.T, opts Options, steps uint64) (map[string]json.RawMessage, []byte) {
	t.Helper()
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunSteps(steps)
	js, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatal(err)
	}
	var sealed bytes.Buffer
	if err := sys.WriteCheckpointTo(&sealed); err != nil {
		t.Fatal(err)
	}
	frame, err := seal.Decode(sealed.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return doc, frame
}

func marshalDoc(t *testing.T, doc map[string]json.RawMessage) []byte {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRestoreRejectsZeroRngState: the all-zero generator state, which
// xoshiro256** never reaches and in which the chain's first step never
// returns, fails to restore from either format.
func TestRestoreRejectsZeroRngState(t *testing.T) {
	doc, frame := checkpointsOf(t, Options{Counts: []int{10, 10}, Lambda: 4, Gamma: 4, Seed: 1}, 1_000)
	doc["rngState"] = json.RawMessage(`"` + strings.Repeat("0", 64) + `"`)
	// The 32 rng bytes follow the header, λ, γ, the flags byte, and the
	// seed, moves, swaps and rejected counters.
	off := snapbin.HeaderSize + 8 + 8 + 1 + 4*8
	zeroed := append([]byte(nil), frame...)
	copy(zeroed[off:off+32], make([]byte, 32))
	for name, data := range map[string][]byte{"JSON": marshalDoc(t, doc), "binary": zeroed} {
		if sys, err := Restore(data, nil); !errors.Is(err, core.ErrBadCheckpoint) {
			t.Errorf("%s: Restore = (%v, %v), want core.ErrBadCheckpoint", name, sys != nil, err)
		}
	}
}

// TestRestoreRejectsBadCouplings: a model checkpoint whose coupling
// vector is shorter than its model's fails with ErrBadCoupling from
// either format, and so does a separation checkpoint with λ = 0.
func TestRestoreRejectsBadCouplings(t *testing.T) {
	doc, frame := checkpointsOf(t, Options{Counts: []int{10, 10, 10}, Model: "alignment", Seed: 2}, 1_000)
	doc["couplings"] = json.RawMessage(`[]`)
	// The model trailer ends the frame: the name, then the coupling count
	// (one varint byte) and one f64 per coupling.
	k := len(core.DefaultCouplings(core.Alignment))
	short := append(append([]byte(nil), frame[:len(frame)-1-8*k]...), 0)
	sep, _ := checkpointsOf(t, Options{Counts: []int{10, 10}, Lambda: 4, Gamma: 4, Seed: 3}, 1_000)
	sep["params"] = json.RawMessage(`{"Lambda":0,"Gamma":4,"DisableSwaps":false,"Seed":3}`)
	for name, data := range map[string][]byte{
		"alignment JSON":   marshalDoc(t, doc),
		"alignment binary": short,
		"separation JSON":  marshalDoc(t, sep),
	} {
		if _, err := Restore(data, nil); !errors.Is(err, ErrBadCoupling) {
			t.Errorf("%s: Restore error %v, want ErrBadCoupling", name, err)
		}
	}
}

// FuzzRestore drives Restore over arbitrary checkpoint bytes, seeded with
// the JSON document and the sealed binary frame of a separation chain and
// an alignment chain. The contract: no input panics or hangs Restore, and
// a System Restore accepts re-encodes through WriteCheckpointTo to one
// that restores at the same step and configuration, and steps on.
func FuzzRestore(f *testing.F) {
	for _, opts := range []Options{
		{Counts: []int{6, 6}, Lambda: 4, Gamma: 4, Seed: 1},
		{Counts: []int{4, 4, 4}, Model: "alignment", Couplings: map[string]float64{"alpha": 6}, Seed: 2},
	} {
		sys, err := New(opts)
		if err != nil {
			f.Fatal(err)
		}
		sys.RunSteps(5_000)
		js, err := sys.Checkpoint()
		if err != nil {
			f.Fatal(err)
		}
		var sealed bytes.Buffer
		if err := sys.WriteCheckpointTo(&sealed); err != nil {
			f.Fatal(err)
		}
		f.Add(js)
		f.Add(sealed.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		sys, err := Restore(data, nil)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := sys.WriteCheckpointTo(&buf); err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		back, err := Restore(buf.Bytes(), nil)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not restore: %v", err)
		}
		if back.Steps() != sys.Steps() || !back.Config().Equal(sys.Config()) {
			t.Fatalf("re-encoded checkpoint restores at step %d, want %d; same configuration %v",
				back.Steps(), sys.Steps(), back.Config().Equal(sys.Config()))
		}
		sys.RunSteps(200)
	})
}
