package snapbin

import (
	"fmt"

	"sops/internal/core"
	"sops/internal/lattice"
)

// maxRngLen bounds the serialized RNG state to the header's u16 field.
const maxRngLen = 1<<16 - 1

const cpDisableSwaps = 1

// EncodeCheckpoint encodes cp as a bare KindCheckpoint frame into the
// encoder's reusable buffer. The returned slice is valid until the next
// Encode call.
//
// Body layout after the 40-byte header (whose Step/Win/N/RngLen/NumColors
// fields hold Stats.Steps, the configuration window, N, len(Rng), and the
// color count):
//
//	f64 lambda | f64 gamma | u8 flags (bit0 disableSwaps) | u64 seed
//	u64 moves | u64 swaps | u64 rejected
//	rngLen raw rng bytes
//	config block (see config.go)
//	u8 hasOrder | n × (varint ΔQ, varint ΔR) when hasOrder = 1
//	[model trailer: string name | count × f64 couplings] — non-separation only
//
// The order is the slot list as points, each as deltas from the one before.
// The model trailer is appended only for non-separation dynamics, so
// separation frames are byte-identical to pre-model releases and decoders
// of those releases reject only frames they could not run anyway. A frame
// without the trailer decodes with Model = "" — the separation model.
func (e *Encoder) EncodeCheckpoint(cp *core.Checkpoint) ([]byte, error) {
	cfg := cp.Config
	if cfg == nil {
		return nil, fmt.Errorf("snapbin: checkpoint without a configuration")
	}
	if len(cp.Rng) > maxRngLen {
		return nil, fmt.Errorf("snapbin: %d-byte rng state exceeds %d", len(cp.Rng), maxRngLen)
	}
	numColors := cfg.NumColors()
	h := Header{
		Kind:        KindCheckpoint,
		BitsPerCell: bitsFor(uint8(numColors)),
		Step:        cp.Stats.Steps,
		Win:         cfg.Window(),
		N:           cfg.N(),
		RngLen:      len(cp.Rng),
		NumColors:   uint8(numColors),
	}
	buf := AppendHeader(e.buf[:0], h)
	buf = AppendF64(buf, cp.Params.Lambda)
	buf = AppendF64(buf, cp.Params.Gamma)
	flags := byte(0)
	if cp.Params.DisableSwaps {
		flags |= cpDisableSwaps
	}
	buf = append(buf, flags)
	buf = appendU64(buf, cp.Params.Seed)
	buf = appendU64(buf, cp.Stats.Moves)
	buf = appendU64(buf, cp.Stats.Swaps)
	buf = appendU64(buf, cp.Stats.Rejected)
	buf = append(buf, cp.Rng...)
	buf = e.appendConfig(buf, cfg)
	if cp.Slots != nil {
		buf = appendSlotOrder(append(buf, 1), cfg.Window(), cp.Slots)
	} else {
		buf = append(buf, 0)
	}
	if cp.Model != "" && cp.Model != "separation" {
		buf = AppendString(buf, cp.Model)
		buf = AppendUvarint(buf, uint64(len(cp.Couplings)))
		for _, v := range cp.Couplings {
			buf = AppendF64(buf, v)
		}
	}
	e.buf = buf
	return buf, nil
}

// appendSlotOrder appends the order entries for slots, indices into win:
// each point's Q and R as varint deltas from the previous point's. A
// chain's slot list starts in canonical column order and only accepted
// moves rewrite its entries, so most slots name the cell one row above the
// slot before them. That entry, deltas (0, 1), is the two bytes 0x00 0x02
// and needs no conversion; the others convert through Window.PointAt. The
// shortcut holds only between cells of the window: a decoded order's
// point outside it is the slot -1 (core.OrderSlot), and the slot after a
// -1 converts too.
func appendSlotOrder(buf []byte, win lattice.Window, slots []int32) []byte {
	up := int32(win.W)
	prev, last := lattice.Point{}, int32(-1)
	for _, s := range slots {
		if s == last+up && last >= 0 {
			buf = append(buf, 0, 2)
			prev.R++
		} else {
			p := win.PointAt(int(s))
			buf = AppendVarint(buf, int64(p.Q-prev.Q))
			buf = AppendVarint(buf, int64(p.R-prev.R))
			prev = p
		}
		last = s
	}
	return buf
}

// DecodeCheckpoint decodes a bare KindCheckpoint frame, turning the order
// points into slots over the decoded configuration's window (core.OrderSlot).
// Every structural property is validated; errors wrap ErrMalformed. Whether
// the state can be resumed is core.Resume's to check. The returned
// checkpoint owns its memory — Rng and the configuration are fresh copies,
// so the caller may reuse the input buffer.
func DecodeCheckpoint(data []byte) (*core.Checkpoint, error) {
	h, err := ParseHeader(data)
	if err != nil {
		return nil, err
	}
	if h.Kind != KindCheckpoint {
		return nil, fmt.Errorf("%w: frame kind %d is not a checkpoint", ErrMalformed, h.Kind)
	}
	r := NewReader(data[HeaderSize:])
	cp := &core.Checkpoint{Stats: core.Stats{Steps: h.Step}}
	if cp.Params.Lambda, err = r.F64(); err != nil {
		return nil, err
	}
	if cp.Params.Gamma, err = r.F64(); err != nil {
		return nil, err
	}
	flags, err := r.U8()
	if err != nil {
		return nil, err
	}
	if flags&^byte(cpDisableSwaps) != 0 {
		return nil, fmt.Errorf("%w: unknown checkpoint flags %#x", ErrMalformed, flags)
	}
	cp.Params.DisableSwaps = flags&cpDisableSwaps != 0
	if cp.Params.Seed, err = r.U64(); err != nil {
		return nil, err
	}
	if cp.Stats.Moves, err = r.U64(); err != nil {
		return nil, err
	}
	if cp.Stats.Swaps, err = r.U64(); err != nil {
		return nil, err
	}
	if cp.Stats.Rejected, err = r.U64(); err != nil {
		return nil, err
	}
	rngView, err := r.Bytes(h.RngLen)
	if err != nil {
		return nil, err
	}
	cp.Rng = append([]byte(nil), rngView...)
	if cp.Config, err = readConfig(r, h.BitsPerCell, h.N, h.NumColors); err != nil {
		return nil, err
	}
	hasOrder, err := r.U8()
	if err != nil {
		return nil, err
	}
	switch hasOrder {
	case 0:
	case 1:
		win := cp.Config.Window()
		cp.Slots = make([]int32, h.N)
		prev := lattice.Point{}
		for i := range cp.Slots {
			dq, err := r.Varint()
			if err != nil {
				return nil, err
			}
			dr, err := r.Varint()
			if err != nil {
				return nil, err
			}
			prev = lattice.Point{Q: prev.Q + int(dq), R: prev.R + int(dr)}
			cp.Slots[i] = core.OrderSlot(win, prev)
		}
	default:
		return nil, fmt.Errorf("%w: order marker %d", ErrMalformed, hasOrder)
	}
	if r.Remaining() > 0 {
		// Model trailer: present only on non-separation checkpoints.
		if cp.Model, err = r.String(); err != nil {
			return nil, err
		}
		if cp.Model == "" {
			return nil, fmt.Errorf("%w: empty model name in trailer", ErrMalformed)
		}
		k, err := r.Count(8)
		if err != nil {
			return nil, err
		}
		cp.Couplings = make([]float64, k)
		for i := range cp.Couplings {
			if cp.Couplings[i], err = r.F64(); err != nil {
				return nil, err
			}
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return cp, nil
}
