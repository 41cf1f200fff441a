package sops

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// This file defines the wire forms of Options and SweepSpec: stable JSON
// codecs front-ends (cmd/sopsd's job API, config files) use to submit work
// without linking against Go. The wire schema carries only the fields that
// determine what is computed — callbacks, trackers and server-side
// checkpoint configuration are runtime wiring and are deliberately not part
// of the contract: Marshal omits them and Unmarshal leaves them zero.
//
// Decoding is strict (unknown fields are rejected), so a typo in a
// submitted spec fails loudly instead of silently running the default.
// Validation stays separate: decode, then call Validate, so API servers can
// distinguish malformed JSON (400, undecodable) from an invalid spec (400,
// named sops.Err* error).

// optionsJSON is the wire schema of Options. Layout travels by name
// ("spiral", "line") via core.Layout's text codec.
type optionsJSON struct {
	Counts       []int              `json:"counts"`
	Layout       Layout             `json:"layout,omitempty"`
	Separated    bool               `json:"separated,omitempty"`
	Lambda       float64            `json:"lambda"`
	Gamma        float64            `json:"gamma"`
	Model        string             `json:"model,omitempty"`
	Couplings    map[string]float64 `json:"couplings,omitempty"`
	DisableSwaps bool               `json:"disableSwaps,omitempty"`
	Seed         uint64             `json:"seed,omitempty"`
	Thresholds   *Thresholds        `json:"thresholds,omitempty"`
}

// MarshalJSON encodes the options in their wire form.
func (o Options) MarshalJSON() ([]byte, error) {
	return json.Marshal(optionsJSON{
		Counts:       o.Counts,
		Layout:       o.Layout,
		Separated:    o.Separated,
		Lambda:       o.Lambda,
		Gamma:        o.Gamma,
		Model:        o.Model,
		Couplings:    o.Couplings,
		DisableSwaps: o.DisableSwaps,
		Seed:         o.Seed,
		Thresholds:   o.Thresholds,
	})
}

// UnmarshalJSON decodes the wire form, rejecting unknown fields. The result
// is not validated; call Validate before building a System from it.
func (o *Options) UnmarshalJSON(data []byte) error {
	var w optionsJSON
	if err := decodeStrict(data, &w); err != nil {
		return fmt.Errorf("sops: decode options: %w", err)
	}
	*o = Options{
		Counts:       w.Counts,
		Layout:       w.Layout,
		Separated:    w.Separated,
		Lambda:       w.Lambda,
		Gamma:        w.Gamma,
		Model:        w.Model,
		Couplings:    w.Couplings,
		DisableSwaps: w.DisableSwaps,
		Seed:         w.Seed,
		Thresholds:   w.Thresholds,
	}
	return nil
}

// sweepSpecJSON is the wire schema of SweepSpec: the deterministic grid
// plus the execution knobs that affect results or effort. Backoff travels
// as integer milliseconds.
type sweepSpecJSON struct {
	Lambdas      []float64            `json:"lambdas,omitempty"`
	Gammas       []float64            `json:"gammas,omitempty"`
	Seeds        []uint64             `json:"seeds,omitempty"`
	Seed         uint64               `json:"seed,omitempty"`
	Counts       []int                `json:"counts"`
	Layout       Layout               `json:"layout,omitempty"`
	Separated    bool                 `json:"separated,omitempty"`
	DisableSwaps bool                 `json:"disableSwaps,omitempty"`
	Model        string               `json:"model,omitempty"`
	Couplings    map[string]float64   `json:"couplings,omitempty"`
	CouplingAxes map[string][]float64 `json:"couplingAxes,omitempty"`
	Steps        uint64               `json:"steps"`
	Workers      int                  `json:"workers,omitempty"`
	Thresholds   *Thresholds          `json:"thresholds,omitempty"`
	Retries      int                  `json:"retries,omitempty"`
	BackoffMS    int64                `json:"backoffMillis,omitempty"`
}

// MarshalJSON encodes the spec's wire form. Runtime-only fields (Observe,
// Tracker, the Checkpoint* configuration) are omitted — they
// belong to whoever executes the spec, not to the spec itself.
func (spec SweepSpec) MarshalJSON() ([]byte, error) {
	return json.Marshal(sweepSpecJSON{
		Lambdas:      spec.Lambdas,
		Gammas:       spec.Gammas,
		Seeds:        spec.Seeds,
		Seed:         spec.Seed,
		Counts:       spec.Counts,
		Layout:       spec.Layout,
		Separated:    spec.Separated,
		DisableSwaps: spec.DisableSwaps,
		Model:        spec.Model,
		Couplings:    spec.Couplings,
		CouplingAxes: spec.CouplingAxes,
		Steps:        spec.Steps,
		Workers:      spec.Workers,
		Thresholds:   spec.Thresholds,
		Retries:      spec.Retries,
		BackoffMS:    spec.Backoff.Milliseconds(),
	})
}

// UnmarshalJSON decodes the wire form, rejecting unknown fields and
// leaving every runtime-only field zero. The result is not validated; call
// Validate before running it.
func (spec *SweepSpec) UnmarshalJSON(data []byte) error {
	var w sweepSpecJSON
	if err := decodeStrict(data, &w); err != nil {
		return fmt.Errorf("sops: decode sweep spec: %w", err)
	}
	*spec = SweepSpec{
		Lambdas:      w.Lambdas,
		Gammas:       w.Gammas,
		Seeds:        w.Seeds,
		Seed:         w.Seed,
		Counts:       w.Counts,
		Layout:       w.Layout,
		Separated:    w.Separated,
		DisableSwaps: w.DisableSwaps,
		Model:        w.Model,
		Couplings:    w.Couplings,
		CouplingAxes: w.CouplingAxes,
		Steps:        w.Steps,
		Workers:      w.Workers,
		Thresholds:   w.Thresholds,
		Retries:      w.Retries,
		Backoff:      time.Duration(w.BackoffMS) * time.Millisecond,
	}
	return nil
}

// decodeStrict unmarshals data into v, failing on unknown fields.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
