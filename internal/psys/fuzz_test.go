package psys

import (
	"bytes"
	"errors"
	"testing"

	"sops/internal/lattice"
)

// FuzzConfigJSON fuzzes the Config JSON codec: any input that decodes must
// yield a configuration whose internal bookkeeping audits clean, and whose
// re-encoding round-trips to an equal configuration with byte-identical
// canonical bytes. Inputs that must be rejected (duplicate positions,
// out-of-range colors, malformed JSON) must leave the receiver unchanged.
// FuzzGridWindow fuzzes the dense store's window machinery: an arbitrary
// byte string decodes to a stream of place/remove/move/swap operations whose
// coordinates span several scales, so sequences repeatedly grow the window,
// trigger reindexing copies and compaction, and cross the area budget, past
// which the dense store refuses placements and moves with ErrSpread and must
// stay unchanged. Every other operation is mirrored on the map-backed
// reference store; verdicts and observables must agree, and the dense store's
// raw-storage audit (CheckCounts) must stay clean throughout. Connected
// hole-free end states must additionally pass the full invariant audit.
func FuzzGridWindow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	// Grow east, then far east (scale bits), then remove back.
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0x40, 3, 0, 0, 0xc0, 5, 5, 1, 1, 0, 0, 0})
	// Place a line, move its head, swap the tail.
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 1, 0, 2, 0, 0, 2, 2, 0, 0, 3, 0, 0, 1})
	// Pathological spread at three scales.
	f.Add([]byte{0x40, 100, 100, 0, 0x80, 100, 100, 1, 0xc0, 100, 100, 2, 1, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, ref := New(), newRef()
		for len(data) >= 4 {
			b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
			data = data[4:]
			// Bits 6–7 of b0 pick the coordinate scale: small patches keep
			// operations colliding, large scales force regrows and refusals.
			scale := [4]int{1, 19, 1 << 11, 1 << 24}[b0>>6&3]
			p := lattice.Point{Q: int(int8(b1)) * scale, R: int(int8(b2)) * scale}
			op := diffOp{
				Kind: b0 & 3,
				P:    p,
				D:    lattice.Direction(b3 % lattice.NumDirections),
				// Occasionally out of range, to cover the rejection path.
				Col: Color(b3 & 31),
			}
			if err := applyBoth(c, ref, op); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckCounts(); err != nil {
				t.Fatalf("after %+v: %v", op, err)
			}
		}
		if err := compareStores(c, ref); err != nil {
			t.Fatal(err)
		}
		if c.Connected() && c.HoleFree() {
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzGatherKernel fuzzes the packed-neighborhood proposal kernel: an
// arbitrary byte string decodes to particle placements at mixed coordinate
// scales (small patches for dense collisions, large spreads for window
// growth and for placements the window refuses with ErrSpread, which must
// leave the store unchanged) plus a set of probe anchors, and every
// (anchor, direction) gather must agree with the readable reference
// implementations — Degree/DegreeExcluding, ColorDegree*, Property4 and
// Property5 — on occupancy bits, packed colors, move validity and both
// Metropolis exponents. The index gather at every particle must equal
// GatherPairFrom over the per-point read path. This holds the
// table-driven kernel to the specification on states far outside the
// chain's reachable set.
func FuzzGatherKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 1, 2, 1, 1})
	// A small blob plus a remote particle, refused with ErrSpread.
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 0, 2, 0xc0, 9, 9, 1})
	// Line of alternating colors: swap-heavy neighborhoods.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0, 2, 0, 0, 3, 0, 1, 4, 0})
	// The first particle opens the window [−8, 8]²; the rest sit at depth
	// 1 in its four corners and on its four sides, where the index gather
	// reads past the window's ends into the plane's pad.
	f.Add([]byte{0, 0, 0, 1, 0xf9, 0xf9, 2, 7, 7, 1, 0xf9, 7, 2, 7, 0xf9,
		1, 0, 0xf9, 2, 0, 7, 1, 0xf9, 0, 2, 7, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := New()
		var anchors []lattice.Point
		for len(data) >= 3 {
			b0, b1, b2 := data[0], data[1], data[2]
			data = data[3:]
			scale := [4]int{1, 7, 1 << 12, 1 << 27}[b0>>6&3]
			p := lattice.Point{Q: int(int8(b1)) % 12 * scale, R: int(int8(b2)) % 12 * scale}
			// Occupied nodes and out-of-range colors are rejected, fine.
			before := c.Clone()
			if err := c.Place(p, Color(b0&7)); errors.Is(err, ErrSpread) {
				if err := sameAs(c, before); err != nil {
					t.Fatalf("refused place at %v: %v", p, err)
				}
			}
			anchors = append(anchors, p)
			if len(anchors) >= 24 {
				break
			}
		}
		if err := c.CheckCounts(); err != nil {
			t.Fatal(err)
		}
		checkIndexGather(t, c)
		for _, l := range anchors {
			for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
				checkGatherAgainstReference(t, c, l, d)
				// Vacant-anchor gathers (lp occupied or not) via a neighbor.
				checkGatherAgainstReference(t, c, l.Neighbor(d), d)
			}
		}
	})
}

func FuzzConfigJSON(f *testing.F) {
	f.Add([]byte(`{"particles":[]}`))
	f.Add([]byte(`{"particles":[{"q":0,"r":0,"color":0}]}`))
	f.Add([]byte(`{"particles":[{"q":0,"r":0,"color":0},{"q":1,"r":0,"color":1}]}`))
	// Duplicate position: must be rejected.
	f.Add([]byte(`{"particles":[{"q":2,"r":3,"color":0},{"q":2,"r":3,"color":1}]}`))
	// Out-of-range color: must be rejected.
	f.Add([]byte(`{"particles":[{"q":0,"r":0,"color":200}]}`))
	// Disconnected but valid: accepted (connectivity is the chain's
	// precondition, not the codec's).
	f.Add([]byte(`{"particles":[{"q":0,"r":0,"color":0},{"q":9,"r":9,"color":0}]}`))
	f.Add([]byte(`{"particles":[{"q":-2147483648,"r":2147483647,"color":15}]}`))
	// A connected 100-particle (1,−1) diagonal string, the widest box a
	// connected configuration can have: accepted.
	diag := make([]Particle, 100)
	for i := range diag {
		diag[i] = Particle{Pos: lattice.Point{Q: i, R: -i}, Color: Color(i % 2)}
	}
	if cfg, err := NewFrom(diag); err == nil {
		if js, err := cfg.MarshalJSON(); err == nil {
			f.Add(js)
		}
	}
	// Two particles 2³⁰ cells apart, or one at the edge of int's range:
	// refused with ErrSpread.
	f.Add([]byte(`{"particles":[{"q":0,"r":0,"color":0},{"q":1073741824,"r":0,"color":1}]}`))
	f.Add([]byte(`{"particles":[{"q":9223372036854775807,"r":0,"color":0}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		pristine := New()
		if err := pristine.Place(lattice.Point{}, 3); err != nil {
			t.Fatal(err)
		}
		before := pristine.CanonicalKey()

		c := New()
		if err := c.UnmarshalJSON(data); err != nil {
			// Rejected input: the documented contract is that the receiver
			// is left unchanged on error.
			if c.N() != 0 || len(c.Points()) != 0 {
				t.Fatalf("failed decode mutated receiver: n=%d", c.N())
			}
			if err := pristine.UnmarshalJSON(data); err == nil {
				t.Fatal("decode verdict differs between receivers")
			}
			if pristine.CanonicalKey() != before {
				t.Fatal("failed decode mutated non-empty receiver")
			}
			return
		}
		// Accepted input: bookkeeping must audit clean without any repair.
		if err := c.CheckCounts(); err != nil {
			t.Fatalf("decoded config fails count audit: %v", err)
		}
		out, err := c.MarshalJSON()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		c2 := New()
		if err := c2.UnmarshalJSON(out); err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		if !c.Equal(c2) {
			t.Fatal("round trip changed the configuration")
		}
		if c.Edges() != c2.Edges() || c.HomEdges() != c2.HomEdges() || c.N() != c2.N() {
			t.Fatal("round trip changed derived statistics")
		}
		// Canonical ordering makes the second encoding byte-identical.
		out2, err := c2.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("re-encoding is not canonical:\n%s\n%s", out, out2)
		}
	})
}
