package snapbin

import (
	"fmt"

	"sops/internal/metrics"
)

// ManifestRecord is one completed sweep cell: its enumeration index, the
// retries it consumed, and the final snapshot.
type ManifestRecord struct {
	Index   int
	Retries int
	Snap    metrics.Snapshot
}

// EncodeManifest encodes a sweep manifest — the spec key plus the
// completed cells, in completion order — as a bare KindManifest frame into
// the encoder's reusable buffer. Records are pulled through at, called
// once per index in order, so the sweep checkpointer feeds its completion
// slice under its own lock. Snapshots ride the sample delta codec without
// derivation hints (cells differ in parameters, so nothing is constant);
// the key travels as opaque bytes. The returned slice is valid until the
// next Encode call.
func (e *Encoder) EncodeManifest(key []byte, n int, at func(i int) ManifestRecord) []byte {
	c := sampleCodec{}
	body := AppendBytes(e.body[:0], key)
	prevIndex := int64(0)
	for i := 0; i < n; i++ {
		rec := at(i)
		body = AppendVarint(body, int64(rec.Index)-prevIndex)
		body = AppendUvarint(body, uint64(rec.Retries))
		body = c.append(body, rec.Snap, 0)
		prevIndex = int64(rec.Index)
	}
	e.body = body
	e.buf = AppendHeader(e.buf[:0], Header{Kind: KindManifest, N: n})
	e.buf = append(e.buf, body...)
	return e.buf
}

// DecodeManifest decodes a bare KindManifest frame into its spec key and
// completed-cell records.
func DecodeManifest(data []byte) (key []byte, recs []ManifestRecord, err error) {
	h, err := ParseHeader(data)
	if err != nil {
		return nil, nil, err
	}
	if h.Kind != KindManifest {
		return nil, nil, fmt.Errorf("%w: frame kind %d is not a manifest", ErrMalformed, h.Kind)
	}
	if h.BitsPerCell != 0 || h.RngLen != 0 || h.NumColors != 0 {
		return nil, nil, fmt.Errorf("%w: manifest frame with configuration header fields", ErrMalformed)
	}
	r := NewReader(data[HeaderSize:])
	keyView, err := r.LenBytes()
	if err != nil {
		return nil, nil, err
	}
	key = append([]byte(nil), keyView...)
	// Each record is at least 9 bytes: index and retry varints plus a
	// minimal sample (flag byte and six varints).
	if h.N > r.Remaining()/9 {
		return nil, nil, fmt.Errorf("%w: %d records exceed the %d remaining bytes", ErrMalformed, h.N, r.Remaining())
	}
	c := sampleCodec{}
	recs = make([]ManifestRecord, h.N)
	prevIndex := int64(0)
	for i := range recs {
		d, err := r.Varint()
		if err != nil {
			return nil, nil, err
		}
		idx := prevIndex + d
		if idx < 0 || idx > 1<<31-1 {
			return nil, nil, fmt.Errorf("%w: cell index %d out of range", ErrMalformed, idx)
		}
		retries, err := r.Uvarint()
		if err != nil {
			return nil, nil, err
		}
		if retries > 1<<31-1 {
			return nil, nil, fmt.Errorf("%w: retry count %d out of range", ErrMalformed, retries)
		}
		snap, _, err := c.read(r)
		if err != nil {
			return nil, nil, err
		}
		recs[i] = ManifestRecord{Index: int(idx), Retries: int(retries), Snap: snap}
		prevIndex = idx
	}
	if err := r.Done(); err != nil {
		return nil, nil, err
	}
	return key, recs, nil
}
