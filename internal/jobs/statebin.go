package jobs

import (
	"fmt"
	"time"

	"sops"
	"sops/internal/metrics"
	"sops/internal/snapbin"
)

// Binary codec for the persisted lifecycle record: one snapbin state-doc
// frame built from the package's exported wire primitives. State documents
// are rewritten on every transition — for a finished sweep that means
// re-serializing every cell outcome each time — so the packed form keeps
// the rewrite cost proportional to bytes that matter. The JSON form stays
// the documented interchange (and the fallback decode path for stores
// written by older daemons).

// stateCodes maps lifecycle states to wire ordinals 1..len(stateCodes).
// The mapping is part of the format: append new states, never reorder.
var stateCodes = []State{
	StateQueued, StateRunning, StateDone,
	StateFailed, StateCanceled, StatePoisoned,
}

func stateCode(s State) (uint8, bool) {
	for i, v := range stateCodes {
		if v == s {
			return uint8(i + 1), true
		}
	}
	return 0, false
}

// appendTime appends a presence flag plus UnixNano; the flag keeps the
// zero time (field absent) distinct from any real instant.
func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	return snapbin.AppendVarint(b, t.UnixNano())
}

func readTime(r *snapbin.Reader) (time.Time, error) {
	flag, err := r.U8()
	if err != nil {
		return time.Time{}, err
	}
	switch flag {
	case 0:
		return time.Time{}, nil
	case 1:
		ns, err := r.Varint()
		if err != nil {
			return time.Time{}, err
		}
		return time.Unix(0, ns).UTC(), nil
	}
	return time.Time{}, fmt.Errorf("%w: time flag %d", snapbin.ErrMalformed, flag)
}

// appendSnap appends one metric snapshot with every field raw: state
// documents hold at most one snapshot per cell, so the trace codec's
// delta machinery would buy nothing here.
func appendSnap(b []byte, s *sops.Snapshot) []byte {
	b = snapbin.AppendUvarint(b, s.Steps)
	b = snapbin.AppendVarint(b, int64(s.N))
	b = snapbin.AppendVarint(b, int64(s.Perimeter))
	b = snapbin.AppendVarint(b, int64(s.MinPerimeter))
	b = snapbin.AppendF64(b, s.Alpha)
	b = snapbin.AppendVarint(b, int64(s.Edges))
	b = snapbin.AppendVarint(b, int64(s.HomEdges))
	b = snapbin.AppendVarint(b, int64(s.HetEdges))
	b = snapbin.AppendF64(b, s.Segregation)
	b = snapbin.AppendF64(b, s.LargestFrac)
	return append(b, byte(s.Phase))
}

// readInt reads a zigzag varint bounded to the int32 range — every integer
// snapshot field fits, and the bound keeps a corrupt document from
// smuggling absurd values into metrics consumers.
func readInt(r *snapbin.Reader) (int, error) {
	v, err := r.Varint()
	if err != nil {
		return 0, err
	}
	if v < -(1<<31) || v > 1<<31-1 {
		return 0, fmt.Errorf("%w: integer %d out of range", snapbin.ErrMalformed, v)
	}
	return int(v), nil
}

func readSnap(r *snapbin.Reader) (*sops.Snapshot, error) {
	var s sops.Snapshot
	var err error
	if s.Steps, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if s.N, err = readInt(r); err != nil {
		return nil, err
	}
	if s.Perimeter, err = readInt(r); err != nil {
		return nil, err
	}
	if s.MinPerimeter, err = readInt(r); err != nil {
		return nil, err
	}
	if s.Alpha, err = r.F64(); err != nil {
		return nil, err
	}
	if s.Edges, err = readInt(r); err != nil {
		return nil, err
	}
	if s.HomEdges, err = readInt(r); err != nil {
		return nil, err
	}
	if s.HetEdges, err = readInt(r); err != nil {
		return nil, err
	}
	if s.Segregation, err = r.F64(); err != nil {
		return nil, err
	}
	if s.LargestFrac, err = r.F64(); err != nil {
		return nil, err
	}
	phase, err := r.U8()
	if err != nil {
		return nil, err
	}
	if phase > uint8(metrics.ExpandedIntegrated) {
		return nil, fmt.Errorf("%w: phase %d out of range", snapbin.ErrMalformed, phase)
	}
	s.Phase = metrics.Phase(phase)
	return &s, nil
}

// Result-presence flags of the record body.
const (
	resPresent = 1 << iota
	resSnap
	resCells
)

// encodeRecord renders rec as one snapbin state-doc frame (unsealed).
func encodeRecord(rec *record) ([]byte, error) {
	code, ok := stateCode(rec.State)
	if !ok {
		return nil, fmt.Errorf("jobs: state %q has no wire code", rec.State)
	}
	var cells int
	if rec.Result != nil {
		cells = len(rec.Result.Cells)
	}
	b := snapbin.AppendHeader(nil, snapbin.Header{Kind: snapbin.KindStateDoc, N: cells})
	b = snapbin.AppendString(b, rec.ID)
	b = append(b, code)
	b = appendTime(b, rec.Created)
	b = appendTime(b, rec.Started)
	b = appendTime(b, rec.Finished)
	b = snapbin.AppendString(b, rec.Error)
	b = snapbin.AppendUvarint(b, uint64(rec.Attempts))
	b = snapbin.AppendUvarint(b, uint64(rec.Requeues))
	if rec.Result == nil {
		return append(b, 0), nil
	}
	flags := byte(resPresent)
	if rec.Result.Snap != nil {
		flags |= resSnap
	}
	if cells > 0 {
		flags |= resCells
	}
	b = append(b, flags)
	if rec.Result.Snap != nil {
		b = appendSnap(b, rec.Result.Snap)
	}
	if cells > 0 {
		for i := range rec.Result.Cells {
			c := &rec.Result.Cells[i]
			b = snapbin.AppendF64(b, c.Lambda)
			b = snapbin.AppendF64(b, c.Gamma)
			b = snapbin.AppendUvarint(b, c.Seed)
			b = snapbin.AppendUvarint(b, uint64(c.Retries))
			b = snapbin.AppendString(b, c.Error)
			if c.Snap != nil {
				b = append(b, 1)
				b = appendSnap(b, c.Snap)
			} else {
				b = append(b, 0)
			}
		}
	}
	return b, nil
}

// decodeRecord parses a state-doc frame written by encodeRecord.
func decodeRecord(data []byte) (*record, error) {
	h, err := snapbin.ParseHeader(data)
	if err != nil {
		return nil, err
	}
	if h.Kind != snapbin.KindStateDoc {
		return nil, fmt.Errorf("%w: kind %d is not a state document", snapbin.ErrMalformed, h.Kind)
	}
	if h.BitsPerCell != 0 || h.RngLen != 0 || h.NumColors != 0 {
		return nil, fmt.Errorf("%w: state document with configuration header fields", snapbin.ErrMalformed)
	}
	r := snapbin.NewReader(data[snapbin.HeaderSize:])
	rec := new(record)
	if rec.ID, err = r.String(); err != nil {
		return nil, err
	}
	code, err := r.U8()
	if err != nil {
		return nil, err
	}
	if code < 1 || int(code) > len(stateCodes) {
		return nil, fmt.Errorf("%w: state code %d", snapbin.ErrMalformed, code)
	}
	rec.State = stateCodes[code-1]
	if rec.Created, err = readTime(r); err != nil {
		return nil, err
	}
	if rec.Started, err = readTime(r); err != nil {
		return nil, err
	}
	if rec.Finished, err = readTime(r); err != nil {
		return nil, err
	}
	if rec.Error, err = r.String(); err != nil {
		return nil, err
	}
	attempts, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	requeues, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if attempts > 1<<31-1 || requeues > 1<<31-1 {
		return nil, fmt.Errorf("%w: attempt counters out of range", snapbin.ErrMalformed)
	}
	rec.Attempts, rec.Requeues = int(attempts), int(requeues)
	flags, err := r.U8()
	if err != nil {
		return nil, err
	}
	switch {
	case flags == 0:
		if h.N != 0 {
			return nil, fmt.Errorf("%w: %d cells declared without a result", snapbin.ErrMalformed, h.N)
		}
	case flags&resPresent == 0 || flags&^(resPresent|resSnap|resCells) != 0:
		return nil, fmt.Errorf("%w: result flags %#x", snapbin.ErrMalformed, flags)
	default:
		rec.Result = new(Result)
		if flags&resSnap != 0 {
			if rec.Result.Snap, err = readSnap(r); err != nil {
				return nil, err
			}
		}
		if flags&resCells != 0 {
			// A cell is at least λ+γ (16) + seed + retries + error len +
			// snap flag (4 single-byte minimums).
			if h.N < 1 || h.N > r.Remaining()/20 {
				return nil, fmt.Errorf("%w: cell count %d exceeds frame size", snapbin.ErrMalformed, h.N)
			}
			rec.Result.Cells = make([]CellOutcome, h.N)
			for i := range rec.Result.Cells {
				c := &rec.Result.Cells[i]
				if c.Lambda, err = r.F64(); err != nil {
					return nil, err
				}
				if c.Gamma, err = r.F64(); err != nil {
					return nil, err
				}
				if c.Seed, err = r.Uvarint(); err != nil {
					return nil, err
				}
				retries, err := r.Uvarint()
				if err != nil {
					return nil, err
				}
				if retries > 1<<31-1 {
					return nil, fmt.Errorf("%w: retry counter out of range", snapbin.ErrMalformed)
				}
				c.Retries = int(retries)
				if c.Error, err = r.String(); err != nil {
					return nil, err
				}
				hasSnap, err := r.U8()
				if err != nil {
					return nil, err
				}
				switch hasSnap {
				case 0:
				case 1:
					if c.Snap, err = readSnap(r); err != nil {
						return nil, err
					}
				default:
					return nil, fmt.Errorf("%w: snapshot flag %d", snapbin.ErrMalformed, hasSnap)
				}
			}
		} else if h.N != 0 {
			return nil, fmt.Errorf("%w: %d cells declared, none present", snapbin.ErrMalformed, h.N)
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return rec, nil
}
