package snapbin

import (
	"fmt"

	"sops/internal/metrics"
)

// TraceSample is one decoded trace row: a metric snapshot plus the energy
// observed with it.
type TraceSample struct {
	Snap   metrics.Snapshot
	Energy float64
}

// EncodeTrace encodes n metric samples as a bare KindTrace frame into the
// encoder's reusable buffer. Samples are pulled through at, called once
// per index in order — so a recorder can feed its ring buffer directly,
// under its own lock, without materializing a slice. The returned slice is
// valid until the next Encode call.
//
// Body layout: hint block (see sample.go), then n delta-coded samples with
// energy. The header's Step field records the last sample's step.
func (e *Encoder) EncodeTrace(hints Hints, n int, at func(i int) (metrics.Snapshot, float64)) []byte {
	c := sampleCodec{hints: hints, withEnergy: true}
	body := appendHints(e.body[:0], hints)
	lastStep := uint64(0)
	for i := 0; i < n; i++ {
		m, energy := at(i)
		body = c.append(body, m, energy)
		lastStep = m.Steps
	}
	e.body = body
	e.buf = AppendHeader(e.buf[:0], Header{Kind: KindTrace, Step: lastStep, N: n})
	e.buf = append(e.buf, body...)
	return e.buf
}

// DecodeTrace decodes a bare KindTrace frame into its hint block and
// samples.
func DecodeTrace(data []byte) (Hints, []TraceSample, error) {
	h, err := ParseHeader(data)
	if err != nil {
		return Hints{}, nil, err
	}
	if h.Kind != KindTrace {
		return Hints{}, nil, fmt.Errorf("%w: frame kind %d is not a trace", ErrMalformed, h.Kind)
	}
	if h.BitsPerCell != 0 || h.RngLen != 0 || h.NumColors != 0 {
		return Hints{}, nil, fmt.Errorf("%w: trace frame with configuration header fields", ErrMalformed)
	}
	r := NewReader(data[HeaderSize:])
	hints, err := readHints(r)
	if err != nil {
		return Hints{}, nil, err
	}
	// A fully-derived sample is at least 7 bytes: the flag byte plus six
	// one-byte varints — the bound that keeps a corrupt count from driving
	// a huge preallocation.
	if h.N > r.Remaining()/7 {
		return Hints{}, nil, fmt.Errorf("%w: %d samples exceed the %d remaining bytes", ErrMalformed, h.N, r.Remaining())
	}
	c := sampleCodec{hints: hints, withEnergy: true}
	samples := make([]TraceSample, h.N)
	for i := range samples {
		m, energy, err := c.read(r)
		if err != nil {
			return Hints{}, nil, err
		}
		samples[i] = TraceSample{Snap: m, Energy: energy}
	}
	if err := r.Done(); err != nil {
		return Hints{}, nil, err
	}
	return hints, samples, nil
}
