// Package snapbin is the compact binary snapshot wire format behind every
// hot durable artifact: run checkpoints, recorder traces, sweep manifests
// and job state documents. It exists because the text codecs (JSON/CSV)
// that remain the documented interchange layer cost one reflective marshal
// per event and an order of magnitude more bytes per sample — at
// production sampling cadences the serializer, not the chain step, bounds
// throughput and dominates artifact size.
//
// # Frame layout
//
// Every frame starts with a fixed 40-byte little-endian header:
//
//	offset  0  4-byte magic "SBN1"
//	offset  4  uint8  version (currently 1)
//	offset  5  uint8  kind (1 checkpoint, 2 trace, 3 manifest, 5 statedoc;
//	           4 is retired)
//	offset  6  uint8  flags (reserved, zero)
//	offset  7  uint8  bits per cell of the occupancy planes (0 when the
//	           frame carries no configuration)
//	offset  8  uint64 step count
//	offset 16  int32  window min Q     — the dense window geometry of the
//	offset 20  int32  window min R       encoded configuration; advisory
//	offset 24  uint32 window width       for tools (decoding rebuilds its
//	offset 28  uint32 window height      own store)
//	offset 32  uint32 n (particles, samples or records, by kind)
//	offset 36  uint16 RNG state length in bytes
//	offset 38  uint8  number of color classes
//	offset 39  uint8  reserved (zero)
//
// followed by a kind-specific body built from three primitives: unsigned
// varints, zigzag varints, and a zero-run-length coder for occupancy planes
// (see xorrle.go). Configurations are carried as packed bit-planes over the
// occupied 64×64 tile set, riding the same tiling as psys.TileStore, so a
// sparse or stringy configuration costs bytes proportional to its occupied
// tiles rather than its bounding box.
//
// Integrity is layered: the decoder validates structure exhaustively (no
// input can make it panic, over-allocate, or accept a frame whose counts
// and bounds disagree), while end-to-end bit-rot detection belongs to the
// internal/seal CRC64 envelope every durable snapbin artifact travels in.
//
// Decoders in this package never trust length or count fields further than
// the bytes actually present: every loop is bounded by the remaining input,
// and trailing garbage is an error, not an ignore.
package snapbin

import (
	"errors"
	"fmt"

	"sops/internal/lattice"
)

// Magic identifies a snapbin frame; Sniff-style readers check it to pick
// the binary decoder over the JSON one.
const Magic = "SBN1"

// Version is the frame version this package writes and the only one it
// accepts.
const Version = 1

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 40

// Kind discriminates frame bodies.
type Kind uint8

// Frame kinds.
const (
	// KindCheckpoint is a complete chain checkpoint: params, stats, RNG
	// state, configuration planes and the particle-selection order.
	KindCheckpoint Kind = 1
	// KindTrace is a recorder trace: delta-coded metric samples.
	KindTrace Kind = 2
	// KindManifest is a sweep manifest: spec key plus completed cells.
	KindManifest Kind = 3
	// Kind 4 was a configuration-stream frame that nothing wrote; it stays
	// retired so no future kind reuses its number.

	// KindStateDoc is a job lifecycle record (internal/jobs).
	KindStateDoc Kind = 5
)

// ErrMalformed reports a frame the decoder rejected: bad magic or version,
// a length or count that disagrees with the bytes present, an out-of-range
// value, or trailing garbage. Wrapped with detail; test with errors.Is.
var ErrMalformed = errors.New("snapbin: malformed frame")

// IsFrame reports whether data begins with the snapbin magic — the sniff
// every read path uses to route between the binary and text decoders.
func IsFrame(data []byte) bool {
	return len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic
}

// Header is the fixed frame header.
type Header struct {
	Kind        Kind
	BitsPerCell uint8
	Step        uint64
	Win         lattice.Window
	N           int
	RngLen      int
	NumColors   uint8
}

// windowLimit bounds header window extents: generous beyond any real dense
// window (the psys area budget), tight enough that a corrupt header cannot
// drive a reader into absurd geometry.
const windowLimit = 1 << 26

// AppendHeader appends the fixed header for h to dst.
func AppendHeader(dst []byte, h Header) []byte {
	dst = append(dst, Magic...)
	dst = append(dst, Version, uint8(h.Kind), 0, h.BitsPerCell)
	dst = appendU64(dst, h.Step)
	dst = appendU32(dst, uint32(int32(h.Win.Min.Q)))
	dst = appendU32(dst, uint32(int32(h.Win.Min.R)))
	dst = appendU32(dst, uint32(h.Win.W))
	dst = appendU32(dst, uint32(h.Win.H))
	dst = appendU32(dst, uint32(h.N))
	dst = append(dst, byte(h.RngLen), byte(h.RngLen>>8))
	dst = append(dst, h.NumColors, 0)
	return dst
}

// ParseHeader validates and decodes the fixed header of a frame.
func ParseHeader(data []byte) (Header, error) {
	var h Header
	if !IsFrame(data) {
		return h, fmt.Errorf("%w: missing frame magic", ErrMalformed)
	}
	if len(data) < HeaderSize {
		return h, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrMalformed, len(data), HeaderSize)
	}
	if v := data[4]; v != Version {
		return h, fmt.Errorf("%w: unsupported version %d", ErrMalformed, v)
	}
	h.Kind = Kind(data[5])
	switch h.Kind {
	case KindCheckpoint, KindTrace, KindManifest, KindStateDoc:
	default:
		return h, fmt.Errorf("%w: unknown kind %d", ErrMalformed, data[5])
	}
	if data[6] != 0 {
		return h, fmt.Errorf("%w: unknown flags %#x", ErrMalformed, data[6])
	}
	h.BitsPerCell = data[7]
	switch h.BitsPerCell {
	case 0, 2, 4, 8:
	default:
		return h, fmt.Errorf("%w: unsupported bits-per-cell %d", ErrMalformed, h.BitsPerCell)
	}
	h.Step = readU64(data[8:])
	h.Win.Min.Q = int(int32(readU32(data[16:])))
	h.Win.Min.R = int(int32(readU32(data[20:])))
	h.Win.W = int(readU32(data[24:]))
	h.Win.H = int(readU32(data[28:]))
	if h.Win.W > windowLimit || h.Win.H > windowLimit {
		return h, fmt.Errorf("%w: window %d×%d exceeds the geometry limit", ErrMalformed, h.Win.W, h.Win.H)
	}
	n := readU32(data[32:])
	if n > 1<<31-1 {
		return h, fmt.Errorf("%w: count %d out of range", ErrMalformed, n)
	}
	h.N = int(n)
	h.RngLen = int(data[36]) | int(data[37])<<8
	h.NumColors = data[38]
	if data[39] != 0 {
		return h, fmt.Errorf("%w: nonzero reserved header byte", ErrMalformed)
	}
	return h, nil
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func readU64(b []byte) uint64 {
	return uint64(readU32(b)) | uint64(readU32(b[4:]))<<32
}
