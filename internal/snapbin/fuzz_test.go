package snapbin

import (
	"bytes"
	"math/rand"
	"testing"

	"sops/internal/core"
	"sops/internal/lattice"
	"sops/internal/metrics"
	"sops/internal/psys"
)

// FuzzSnapbinDecode drives every decoder in the package over arbitrary
// bytes. The contract under fuzzing: no input may panic or over-allocate a
// decoder, and any input a decoder accepts must re-encode to an equivalent
// frame (decoders never silently accept a frame whose structure and header
// disagree).
func FuzzSnapbinDecode(f *testing.F) {
	r := rand.New(rand.NewSource(11))
	cfg := psys.New()
	for i := 0; i < 40; i++ {
		p := lattice.Point{Q: r.Intn(12) - 20, R: r.Intn(12)}
		if !cfg.Occupied(p) {
			cfg.Place(p, psys.Color(r.Intn(3)))
		}
	}
	var enc Encoder
	cp := &core.Checkpoint{
		Params: core.Params{Lambda: 4, Gamma: 0.5, Seed: 3}, Stats: core.Stats{Steps: 1000},
		Rng: make([]byte, 32), Config: cfg, Slots: cfg.AppendIndices(nil),
	}
	if frame, err := enc.EncodeCheckpoint(cp); err == nil {
		f.Add(append([]byte(nil), frame...))
	}
	// A connected 100-particle (1,−1) diagonal string, the widest box a
	// connected configuration can have, and two particles 2³⁰ cells apart,
	// which the decoder refuses with psys.ErrSpread.
	diag := make([]psys.Particle, 100)
	for i := range diag {
		diag[i] = psys.Particle{Pos: lattice.Point{Q: i, R: -i}, Color: psys.Color(i % 2)}
	}
	if cfg, err := psys.NewFrom(diag); err == nil {
		cp := &core.Checkpoint{
			Params: core.Params{Lambda: 4, Gamma: 4, Seed: 5},
			Rng:    make([]byte, 32), Config: cfg, Slots: cfg.AppendIndices(nil),
		}
		if frame, err := enc.EncodeCheckpoint(cp); err == nil {
			f.Add(append([]byte(nil), frame...))
		}
	}
	f.Add(spreadCheckpointFrame())
	snaps := []metrics.Snapshot{
		{Steps: 100, N: 40, Edges: 50, HomEdges: 30, HetEdges: 20, Alpha: 1.5, Phase: metrics.CompressedSeparated},
		{Steps: 200, N: 40, Edges: 55, HomEdges: 35, HetEdges: 20, Alpha: 1.4},
	}
	hints := Hints{HasParams: true, Lambda: 4, Gamma: 0.5, Counts: []int{20, 20}}
	f.Add(append([]byte(nil), enc.EncodeTrace(hints, len(snaps), func(i int) (metrics.Snapshot, float64) {
		return snaps[i], float64(i)
	})...))
	f.Add(append([]byte(nil), enc.EncodeManifest([]byte("spec"), 2, func(i int) ManifestRecord {
		return ManifestRecord{Index: i, Snap: snaps[i]}
	})...))

	// The oracle for accepted inputs is idempotence: encode(decode(x)) must
	// be a fixpoint of decode∘encode — a decoder that silently misreads a
	// frame cannot reproduce it stably. (Byte equality with the input is
	// deliberately not required: the reader tolerates non-minimal varints,
	// which re-encode minimally.)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		if cp, err := DecodeCheckpoint(data); err == nil {
			var e, e2 Encoder
			frame, err := e.EncodeCheckpoint(cp)
			if err != nil {
				t.Fatalf("accepted checkpoint does not re-encode: %v", err)
			}
			cp2, err := DecodeCheckpoint(frame)
			if err != nil {
				t.Fatalf("re-encoded checkpoint does not decode: %v", err)
			}
			frame2, err := e2.EncodeCheckpoint(cp2)
			if err != nil || !bytes.Equal(frame, frame2) {
				t.Fatal("checkpoint decode/encode is not a fixpoint")
			}
		}
		if hints, samples, err := DecodeTrace(data); err == nil {
			var e, e2 Encoder
			frame := append([]byte(nil), e.EncodeTrace(hints, len(samples), func(i int) (metrics.Snapshot, float64) {
				return samples[i].Snap, samples[i].Energy
			})...)
			hints2, samples2, err := DecodeTrace(frame)
			if err != nil {
				t.Fatalf("re-encoded trace does not decode: %v", err)
			}
			frame2 := e2.EncodeTrace(hints2, len(samples2), func(i int) (metrics.Snapshot, float64) {
				return samples2[i].Snap, samples2[i].Energy
			})
			if !bytes.Equal(frame, frame2) {
				t.Fatal("trace decode/encode is not a fixpoint")
			}
		}
		if key, recs, err := DecodeManifest(data); err == nil {
			var e, e2 Encoder
			frame := append([]byte(nil), e.EncodeManifest(key, len(recs), func(i int) ManifestRecord { return recs[i] })...)
			key2, recs2, err := DecodeManifest(frame)
			if err != nil {
				t.Fatalf("re-encoded manifest does not decode: %v", err)
			}
			frame2 := e2.EncodeManifest(key2, len(recs2), func(i int) ManifestRecord { return recs2[i] })
			if !bytes.Equal(frame, frame2) {
				t.Fatal("manifest decode/encode is not a fixpoint")
			}
		}
	})
}

// spreadCheckpointFrame encodes a checkpoint frame whose configuration
// block holds two particles 2³⁰ cells apart, one in each of two tiles 2²⁴
// tiles apart: a frame no Config can produce, which DecodeCheckpoint must
// refuse with psys.ErrSpread.
func spreadCheckpointFrame() []byte {
	const bpc = 2
	var plane [lattice.TileArea]byte
	setPlane(plane[:planeBytes(bpc)], 0, bpc, 1)
	buf := AppendHeader(nil, Header{Kind: KindCheckpoint, BitsPerCell: bpc, N: 2, RngLen: 32, NumColors: 1})
	buf = AppendF64(buf, 4)
	buf = AppendF64(buf, 4)
	buf = append(buf, 0) // flags
	for i := 0; i < 4; i++ {
		buf = appendU64(buf, 0) // seed, moves, swaps, rejected
	}
	buf = append(buf, make([]byte, 32)...)
	buf = append(buf, 1) // numColors
	buf = AppendUvarint(buf, 2)
	for _, dq := range []int64{0, 1 << 24} {
		buf = AppendVarint(buf, dq)
		buf = AppendVarint(buf, 0)
		buf = appendXorRLE(buf, plane[:planeBytes(bpc)])
	}
	return append(buf, 0) // no order
}
