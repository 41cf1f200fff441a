package snapbin

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"sops/internal/core"
	"sops/internal/lattice"
	"sops/internal/metrics"
	"sops/internal/psys"
)

// mustPlace builds a configuration from (point, color) placements.
func mustPlace(t *testing.T, pts []lattice.Point, cols []psys.Color) *psys.Config {
	t.Helper()
	cfg := psys.New()
	for i, p := range pts {
		if err := cfg.Place(p, cols[i]); err != nil {
			t.Fatalf("place %v: %v", p, err)
		}
	}
	return cfg
}

// randomConfig scatters n particles of k colors in a w×w box at origin.
func randomConfig(t *testing.T, r *rand.Rand, n, k, w int, origin lattice.Point) *psys.Config {
	t.Helper()
	seen := make(map[lattice.Point]bool, n)
	particles := make([]psys.Particle, 0, n)
	for len(particles) < n {
		p := lattice.Point{Q: origin.Q + r.Intn(w), R: origin.R + r.Intn(w)}
		if seen[p] {
			continue
		}
		seen[p] = true
		particles = append(particles, psys.Particle{Pos: p, Color: psys.Color(r.Intn(k))})
	}
	cfg, err := psys.NewFrom(particles)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// sameConfig compares two configurations cell by cell.
func sameConfig(t *testing.T, want, got *psys.Config) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("n: want %d, got %d", want.N(), got.N())
	}
	want.ForEach(func(p lattice.Point, col psys.Color) {
		g, ok := got.At(p)
		if !ok || g != col {
			t.Fatalf("cell %v: want color %d, got (%d, %v)", p, col, g, ok)
		}
	})
}

func TestVarintRoundTrip(t *testing.T) {
	values := []int64{0, 1, -1, 63, -64, 64, -65, 1 << 20, -(1 << 20), math.MaxInt64, math.MinInt64}
	var buf []byte
	for _, v := range values {
		buf = AppendVarint(buf, v)
	}
	r := NewReader(buf)
	for _, v := range values {
		got, err := r.Varint()
		if err != nil {
			t.Fatalf("varint %d: %v", v, err)
		}
		if got != v {
			t.Fatalf("varint: want %d, got %d", v, got)
		}
	}
	if err := r.Done(); err != nil {
		t.Fatalf("done: %v", err)
	}
}

func TestUvarintRejectsOverlong(t *testing.T) {
	// 11 continuation bytes: longer than any canonical uint64.
	data := bytes.Repeat([]byte{0x80}, 11)
	if _, err := NewReader(data).Uvarint(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("overlong varint: got %v", err)
	}
	// 10 bytes whose top byte overflows 64 bits.
	data = append(bytes.Repeat([]byte{0x80}, 9), 0x02)
	if _, err := NewReader(data).Uvarint(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("overflowing varint: got %v", err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Kind:        KindCheckpoint,
		BitsPerCell: 2,
		Step:        123456789,
		Win:         lattice.Window{Min: lattice.Point{Q: -40, R: -7}, W: 95, H: 81},
		N:           100,
		RngLen:      32,
		NumColors:   2,
	}
	data := AppendHeader(nil, h)
	if len(data) != HeaderSize {
		t.Fatalf("header length %d, want %d", len(data), HeaderSize)
	}
	got, err := ParseHeader(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got != h {
		t.Fatalf("round trip: want %+v, got %+v", h, got)
	}

	// Only the written kinds parse (4 stays retired), and the flags byte
	// is reserved zero.
	for _, bad := range []struct {
		name string
		off  int
		val  byte
	}{
		{"kind 0", 5, 0},
		{"retired kind 4", 5, 4},
		{"kind 6", 5, 6},
		{"flags 0x01", 6, 0x01},
		{"flags 0x80", 6, 0x80},
		{"reserved byte", 39, 1},
	} {
		m := append([]byte(nil), data...)
		m[bad.off] = bad.val
		if _, err := ParseHeader(m); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", bad.name, err)
		}
	}
}

func TestXorRLERoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	// From empty to dense: trial i sets up to i·20 random bytes.
	for trial := 0; trial < 52; trial++ {
		plane := make([]byte, 1024)
		for i := 0; i < 20*trial; i++ {
			plane[r.Intn(len(plane))] = byte(r.Intn(256))
		}
		enc := appendXorRLE(nil, plane)
		out := make([]byte, len(plane))
		r.Read(out) // decoding must overwrite every byte
		rd := NewReader(enc)
		if err := readXorRLE(rd, out); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := rd.Done(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(out, plane) {
			t.Fatalf("trial %d: plane mismatch", trial)
		}
	}
}

func checkpointFor(cfg *psys.Config, withOrder bool) *core.Checkpoint {
	cp := &core.Checkpoint{
		Params: core.Params{Lambda: 4, Gamma: 0.4, Seed: 99},
		Stats:  core.Stats{Steps: 1 << 40, Moves: 12345, Swaps: 678, Rejected: 90123},
		Rng:    bytes.Repeat([]byte{0xAB, 0x12}, 16),
		Config: cfg,
	}
	if withOrder {
		cp.Slots = cfg.AppendIndices([]int32{})
	}
	return cp
}

func TestCheckpointRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cases := map[string]*psys.Config{
		"empty":     psys.New(),
		"single":    mustPlace(t, []lattice.Point{{Q: 5, R: -3}}, []psys.Color{1}),
		"negative":  randomConfig(t, r, 60, 2, 20, lattice.Point{Q: -300, R: -451}),
		"multitile": randomConfig(t, r, 400, 2, 200, lattice.Point{Q: -100, R: -100}),
		"colors16":  randomConfig(t, r, 64, 16, 30, lattice.Point{}),
		"colors4":   randomConfig(t, r, 64, 4, 30, lattice.Point{}),
		"straddle":  randomConfig(t, r, 50, 2, 16, lattice.Point{Q: 56, R: 60}),
	}
	var enc Encoder
	for name, cfg := range cases {
		for _, withOrder := range []bool{false, true} {
			cp := checkpointFor(cfg, withOrder)
			frame, err := enc.EncodeCheckpoint(cp)
			if err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			got, err := DecodeCheckpoint(frame)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if got.Params != cp.Params || got.Stats != cp.Stats {
				t.Fatalf("%s: scalar fields: want %+v, got %+v", name, cp, got)
			}
			if !bytes.Equal(got.Rng, cp.Rng) {
				t.Fatalf("%s: rng state mismatch", name)
			}
			sameConfig(t, cfg, got.Config)
			if withOrder {
				if len(got.Slots) != len(cp.Slots) {
					t.Fatalf("%s: order length: want %d, got %d", name, len(cp.Slots), len(got.Slots))
				}
				for i, s := range cp.Slots {
					if p, q := cfg.Window().PointAt(int(s)), got.Config.Window().PointAt(int(got.Slots[i])); p != q {
						t.Fatalf("%s: order[%d]: want %v, got %v", name, i, p, q)
					}
				}
			} else if got.Slots != nil {
				t.Fatalf("%s: unexpected order", name)
			}

			// Deterministic: re-encoding the decoded checkpoint reproduces
			// the frame body byte for byte. (The header's advisory window
			// geometry depends on placement order, so only the body is
			// canonical.)
			var enc2 Encoder
			frame2, err := enc2.EncodeCheckpoint(got)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", name, err)
			}
			if !bytes.Equal(frame[HeaderSize:], frame2[HeaderSize:]) {
				t.Fatalf("%s: encoding not canonical", name)
			}
		}
	}
}

// TestCheckpointSlotsEncodeLikeOrder: a chain's slot list encodes to the
// same frame as the reference encoding of the same order as points, each
// point's Q and R a varint delta from the point before — in canonical
// column order, where most slots sit one row above the slot before them,
// with a tenth of the entries swapped, and shuffled.
func TestCheckpointSlotsEncodeLikeOrder(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var rhombus []psys.Particle
	for q := 0; q < 30; q++ {
		for rr := 0; rr < 30; rr++ {
			rhombus = append(rhombus, psys.Particle{Pos: lattice.Point{Q: q - 15, R: rr + 40}, Color: psys.Color((q + rr) % 2)})
		}
	}
	compact, err := psys.NewFrom(rhombus)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]*psys.Config{
		"single":    mustPlace(t, []lattice.Point{{Q: 5, R: -3}}, []psys.Color{1}),
		"negative":  randomConfig(t, r, 60, 2, 20, lattice.Point{Q: -300, R: -451}),
		"multitile": randomConfig(t, r, 400, 2, 200, lattice.Point{Q: -100, R: -100}),
		"compact":   compact,
	} {
		for _, mix := range []string{"canonical", "swapped", "shuffled"} {
			slots := cfg.AppendIndices(nil)
			switch mix {
			case "swapped":
				for k := 0; k < len(slots)/10; k++ {
					i, j := r.Intn(len(slots)), r.Intn(len(slots))
					slots[i], slots[j] = slots[j], slots[i]
				}
			case "shuffled":
				r.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
			}
			var a, b Encoder
			bare, err := a.EncodeCheckpoint(checkpointFor(cfg, false))
			if err != nil {
				t.Fatal(err)
			}
			// The frame without an order ends in its hasOrder byte 0.
			want := append(bare[:len(bare)-1:len(bare)-1], 1)
			prev := lattice.Point{}
			for _, s := range slots {
				p := cfg.Window().PointAt(int(s))
				want = AppendVarint(want, int64(p.Q-prev.Q))
				want = AppendVarint(want, int64(p.R-prev.R))
				prev = p
			}
			bySlots := checkpointFor(cfg, false)
			bySlots.Slots = slots
			got, err := b.EncodeCheckpoint(bySlots)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, %s order: the slots encode differently from the same order as points", name, mix)
			}
		}
	}
}

// TestCheckpointOrderOutsideWindow: an order point outside the window
// decodes to the slot -1, which core.Resume rejects, and re-encodes to the
// same frame. The slot after it, W − 1, lies one row above -1 in index
// arithmetic but keeps its own point, the window's first row.
func TestCheckpointOrderOutsideWindow(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cfg := randomConfig(t, r, 60, 2, 20, lattice.Point{Q: -30, R: 12})
	win := cfg.Window()
	cp := checkpointFor(cfg, true)
	cp.Slots[1], cp.Slots[2] = -1, int32(win.W-1)
	var a, b Encoder
	frame, err := a.EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Slots[1] != -1 {
		t.Fatalf("order point outside the window decodes to slot %d", got.Slots[1])
	}
	if p, q := win.PointAt(win.W-1), got.Config.Window().PointAt(int(got.Slots[2])); got.Slots[2] < 0 || p != q {
		t.Fatalf("slot W-1 after -1 decodes to slot %d (%v), want %v", got.Slots[2], q, p)
	}
	again, err := b.EncodeCheckpoint(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame[HeaderSize:], again[HeaderSize:]) {
		t.Fatal("re-encoding the decoded order changed it")
	}
}

func TestCheckpointDisableSwaps(t *testing.T) {
	cfg := mustPlace(t, []lattice.Point{{Q: 0}}, []psys.Color{0})
	cp := checkpointFor(cfg, false)
	cp.Params.DisableSwaps = true
	var enc Encoder
	frame, err := enc.EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Params.DisableSwaps {
		t.Fatal("DisableSwaps not round-tripped")
	}
}

// randomSnapshot fabricates a snapshot with no internal consistency, so
// every derived field exercises its raw fallback.
func randomSnapshot(r *rand.Rand) metrics.Snapshot {
	return metrics.Snapshot{
		Steps:        uint64(r.Int63n(1 << 45)),
		N:            r.Intn(1000),
		Perimeter:    r.Intn(4000),
		MinPerimeter: r.Intn(200),
		Alpha:        r.NormFloat64() * 10,
		Edges:        r.Intn(3000),
		HomEdges:     r.Intn(3000),
		HetEdges:     r.Intn(3000),
		Segregation:  r.NormFloat64(),
		LargestFrac:  r.Float64(),
		Phase:        metrics.Phase(r.Intn(5)),
	}
}

// derivedSnapshot fabricates a snapshot whose floats all follow from its
// ints under the hints, so every field takes the derived path.
func derivedSnapshot(step uint64, h Hints) metrics.Snapshot {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	edges, hom := 250+int(step%17), 200+int(step%11)
	perim := 120 + int(step%13)
	mp := psys.MinPerimeter(n)
	size := int(step % uint64(h.Counts[0]+1))
	m := metrics.Snapshot{
		Steps:        step,
		N:            n,
		Perimeter:    perim,
		MinPerimeter: mp,
		Alpha:        float64(perim) / float64(mp),
		Edges:        edges,
		HomEdges:     hom,
		HetEdges:     edges - hom,
		Segregation:  metrics.SegregationDerived(edges, edges-hom, n, h.Counts),
		LargestFrac:  float64(size) / float64(h.Counts[0]),
		Phase:        metrics.CompressedSeparated,
	}
	return m
}

func TestTraceRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	hints := Hints{HasParams: true, Lambda: 4, Gamma: 0.5, Counts: []int{60, 40}}
	var samples []TraceSample
	// Mix of fully-derived and adversarially random samples.
	for i := 0; i < 200; i++ {
		var s TraceSample
		if i%3 == 0 {
			s.Snap = randomSnapshot(r)
			s.Energy = r.NormFloat64() * 100
		} else {
			s.Snap = derivedSnapshot(uint64(i)*1000, hints)
			s.Energy = -float64(s.Snap.Edges)*math.Log(hints.Lambda) - float64(s.Snap.HomEdges)*math.Log(hints.Gamma)
		}
		samples = append(samples, s)
	}
	for _, h := range []Hints{hints, {}} {
		var enc Encoder
		frame := enc.EncodeTrace(h, len(samples), func(i int) (metrics.Snapshot, float64) {
			return samples[i].Snap, samples[i].Energy
		})
		gotHints, got, err := DecodeTrace(frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if gotHints.HasParams != h.HasParams || gotHints.Lambda != h.Lambda ||
			gotHints.Gamma != h.Gamma || len(gotHints.Counts) != len(h.Counts) {
			t.Fatalf("hints: want %+v, got %+v", h, gotHints)
		}
		if len(got) != len(samples) {
			t.Fatalf("sample count: want %d, got %d", len(samples), len(got))
		}
		for i := range samples {
			if got[i].Snap != samples[i].Snap {
				t.Fatalf("sample %d: want %+v, got %+v", i, samples[i].Snap, got[i].Snap)
			}
			if math.Float64bits(got[i].Energy) != math.Float64bits(samples[i].Energy) {
				t.Fatalf("sample %d energy: want %v, got %v", i, samples[i].Energy, got[i].Energy)
			}
		}
	}
}

func TestTraceSpecialFloats(t *testing.T) {
	snaps := []TraceSample{
		{Snap: metrics.Snapshot{Alpha: math.NaN(), Segregation: math.Inf(1), LargestFrac: math.Inf(-1)}, Energy: math.NaN()},
		{Snap: metrics.Snapshot{Alpha: math.Copysign(0, -1)}, Energy: math.Inf(1)},
	}
	var enc Encoder
	frame := enc.EncodeTrace(Hints{}, len(snaps), func(i int) (metrics.Snapshot, float64) {
		return snaps[i].Snap, snaps[i].Energy
	})
	_, got, err := DecodeTrace(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snaps {
		w, g := snaps[i], got[i]
		if math.Float64bits(w.Snap.Alpha) != math.Float64bits(g.Snap.Alpha) ||
			math.Float64bits(w.Snap.Segregation) != math.Float64bits(g.Snap.Segregation) ||
			math.Float64bits(w.Snap.LargestFrac) != math.Float64bits(g.Snap.LargestFrac) ||
			math.Float64bits(w.Energy) != math.Float64bits(g.Energy) {
			t.Fatalf("sample %d: special floats not preserved bit-exactly", i)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	key := []byte(`{"lambdas":[2,4],"gammas":[0.3,3]}`)
	var recs []ManifestRecord
	for i := 0; i < 120; i++ {
		recs = append(recs, ManifestRecord{
			Index:   r.Intn(500),
			Retries: r.Intn(3),
			Snap:    randomSnapshot(r),
		})
	}
	var enc Encoder
	frame := enc.EncodeManifest(key, len(recs), func(i int) ManifestRecord { return recs[i] })
	gotKey, got, err := DecodeManifest(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(gotKey, key) {
		t.Fatalf("key: want %q, got %q", key, gotKey)
	}
	if len(got) != len(recs) {
		t.Fatalf("record count: want %d, got %d", len(recs), len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: want %+v, got %+v", i, recs[i], got[i])
		}
	}
}

// corruptions returns a set of deterministic single-byte mutations and
// truncations of frame.
func corruptions(frame []byte) [][]byte {
	var out [][]byte
	for i := 0; i < len(frame); i++ {
		for _, bit := range []byte{0x01, 0x80, 0xFF} {
			m := append([]byte(nil), frame...)
			m[i] ^= bit
			out = append(out, m)
		}
	}
	for i := 0; i < len(frame); i += 1 + len(frame)/64 {
		out = append(out, append([]byte(nil), frame[:i]...))
	}
	out = append(out, append(append([]byte(nil), frame...), 0))
	out = append(out, append(append([]byte(nil), frame...), frame...))
	return out
}

// TestDecodersNeverPanic drives every decoder over systematic corruptions
// of valid frames: each must return a decoded value or an error — never
// panic — and a successful decode of a mutated checkpoint must still obey
// the structural invariants (header/config agreement is checked inside the
// decoders themselves).
func TestDecodersNeverPanic(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	cfg := randomConfig(t, r, 120, 3, 40, lattice.Point{Q: -20, R: -20})
	var enc Encoder
	cpFrame, err := enc.EncodeCheckpoint(checkpointFor(cfg, true))
	if err != nil {
		t.Fatal(err)
	}
	cpFrame = append([]byte(nil), cpFrame...)

	hints := Hints{HasParams: true, Lambda: 4, Gamma: 0.5, Counts: []int{60, 60}}
	var samples []TraceSample
	for i := 0; i < 20; i++ {
		samples = append(samples, TraceSample{Snap: randomSnapshot(r), Energy: r.NormFloat64()})
	}
	trFrame := append([]byte(nil), enc.EncodeTrace(hints, len(samples), func(i int) (metrics.Snapshot, float64) {
		return samples[i].Snap, samples[i].Energy
	})...)

	var recs []ManifestRecord
	for i := 0; i < 20; i++ {
		recs = append(recs, ManifestRecord{Index: i * 3, Snap: randomSnapshot(r)})
	}
	mfFrame := append([]byte(nil), enc.EncodeManifest([]byte("key"), len(recs), func(i int) ManifestRecord { return recs[i] })...)

	for _, frame := range [][]byte{cpFrame, trFrame, mfFrame} {
		for _, m := range corruptions(frame) {
			DecodeCheckpoint(m)
			DecodeTrace(m)
			DecodeManifest(m)
		}
	}
}

func TestRowCellsMatchesAt(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	cfg := randomConfig(t, r, 150, 3, 48, lattice.Point{Q: -31, R: -17})
	win := cfg.Window()
	for rr := win.Min.R - 2; rr < win.Min.R+win.H+2; rr++ {
		lo, hi := win.Min.Q-3, win.Min.Q+win.W+3
		row := cfg.RowCells(rr, lo, hi)
		cl := max(lo, win.Min.Q)
		for k, v := range row {
			p := lattice.Point{Q: cl + k, R: rr}
			col, ok := cfg.At(p)
			if v == 0 && ok {
				t.Fatalf("row says vacant, At says color %d at %v", col, p)
			}
			if v != 0 && (!ok || psys.Color(v-1) != col) {
				t.Fatalf("row says %d, At says (%d, %v) at %v", v, col, ok, p)
			}
		}
	}
}

// TestDecodeCheckpointRefusesSpread: a configuration block whose particles
// lie too far apart for the dense window fails as a malformed frame that
// also matches psys.ErrSpread.
func TestDecodeCheckpointRefusesSpread(t *testing.T) {
	_, err := DecodeCheckpoint(spreadCheckpointFrame())
	if !errors.Is(err, ErrMalformed) || !errors.Is(err, psys.ErrSpread) {
		t.Fatalf("err %v, want ErrMalformed and psys.ErrSpread", err)
	}
}
