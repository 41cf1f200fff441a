package amoebot

import (
	"testing"

	"sops/internal/core"
	"sops/internal/lattice"
	"sops/internal/metrics"
	"sops/internal/rng"
)

// TestAgentMatchesDirectImplementation is the behavioral-equivalence proof
// for the strictly local agent program: with trivial orientations and the
// same random stream, ActivateAgent must produce exactly the same outcome
// sequence and world trajectory as the direct Activate — for the paper's
// separation dynamics and for alignment at k = 3.
func TestAgentMatchesDirectImplementation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		counts []int
		model  core.Model
		coup   []float64
	}{
		{"separation", []int{12, 12}, core.Separation, []float64{4, 4}},
		{"alignment-k3", []int{8, 8, 8}, core.Alignment, []float64{4, 6, 1.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *World {
				cfg, err := core.Initial(core.LayoutSpiral, tc.counts, 9)
				if err != nil {
					t.Fatal(err)
				}
				w, err := NewWorldWithModel(cfg, core.Params{Seed: 5}, tc.model, tc.coup, 0)
				if err != nil {
					t.Fatal(err)
				}
				for id := 0; id < w.N(); id++ {
					w.SetOrientation(id, 0)
				}
				return w
			}
			direct, agent := mk(), mk()
			rd, ra := rng.NewBuffered(77), rng.NewBuffered(77)
			sched := rng.New(33)
			for step := 0; step < 200000; step++ {
				id := sched.Intn(direct.N())
				od := direct.Activate(id, rd)
				oa := agent.ActivateAgent(id, ra)
				if od != oa {
					t.Fatalf("step %d: direct=%v agent=%v", step, od, oa)
				}
			}
			if direct.Snapshot().CanonicalKey() != agent.Snapshot().CanonicalKey() {
				t.Fatal("trajectories diverged despite identical outcomes")
			}
		})
	}
}

// TestAgentWithRandomOrientations: private orientations must not change
// the law of the process — the system still separates, and invariants hold.
func TestAgentWithRandomOrientations(t *testing.T) {
	cfg, err := core.Initial(core.LayoutSpiral, []int{15, 15}, 9)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(cfg, core.Params{Lambda: 4, Gamma: 4, Seed: 21}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewBuffered(5)
	for step := 0; step < 1500000; step++ {
		w.ActivateAgent(r.Intn(w.N()), r)
	}
	snap := w.Snapshot()
	if !snap.Connected() || !snap.HoleFree() {
		t.Fatal("agent run violated invariants")
	}
	if seg := metrics.SegregationIndex(snap); seg < 0.5 {
		t.Fatalf("agent-driven system failed to separate: segregation %v", seg)
	}
}

// TestAgentConcurrent drives the agent path from multiple goroutines
// (exercised under -race) and checks quiescent invariants.
func TestAgentConcurrent(t *testing.T) {
	cfg, err := core.Initial(core.LayoutSpiral, []int{10, 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(cfg, core.Params{Lambda: 4, Gamma: 4, Seed: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(123)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		stream := new(rng.Buffered)
		stream.SetState(root.NewStream())
		go func(r *rng.Buffered) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50000; i++ {
				w.ActivateAgent(r.Intn(w.N()), r)
			}
		}(stream)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	snap := w.Snapshot()
	if !snap.Connected() || !snap.HoleFree() {
		t.Fatal("concurrent agent run violated invariants")
	}
	if snap.ColorCount(0) != 10 || snap.ColorCount(1) != 10 {
		t.Fatal("color counts changed")
	}
}

// TestLocalViewAddressing pins the port semantics: port p of a particle
// with orientation rot reads global direction p+rot.
func TestLocalViewAddressing(t *testing.T) {
	cfg, err := core.Initial(core.LayoutLine, []int{2}, 1) // particles at (0,0),(1,0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(cfg, core.Params{Lambda: 2, Gamma: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Particle 0 at origin; its neighbor (1,0) is global East (dir 0).
	w.SetOrientation(0, 0)
	v := &LocalView{w: w, pos: lattice.Point{}, rot: 0}
	if _, ok := v.NeighborColor(0); !ok {
		t.Fatal("port 0 with rot 0 should see the East neighbor")
	}
	for p := Port(1); p < 6; p++ {
		if _, ok := v.NeighborColor(p); ok {
			t.Fatalf("port %d unexpectedly occupied", p)
		}
	}
	// Rotated by 2: the East neighbor appears at port 6-2=4.
	v2 := &LocalView{w: w, pos: lattice.Point{}, rot: 2}
	if _, ok := v2.NeighborColor(4); !ok {
		t.Fatal("port 4 with rot 2 should see the East neighbor")
	}
	if _, ok := v2.NeighborColor(0); ok {
		t.Fatal("port 0 with rot 2 should be vacant")
	}
	// From origin through the East neighbor, the target's back port is
	// the activating particle's own cell.
	if col, ok := v.TargetNeighborColor(0, 3); !ok || col != v.OwnColor() {
		t.Fatal("own cell must appear occupied, in its own color, from the target's back port")
	}
	// The private frame reads the same cells: with rot 2 the East
	// neighbor sits at private point origin+dir(4), and the cell beyond it
	// along port 4 (global (2,0)) is vacant.
	east := lattice.Point{}.Neighbor(4)
	if _, ok := v2.at(4, lattice.Point{}); !ok {
		t.Fatal("private-frame origin must read the own cell")
	}
	if _, ok := v2.at(4, east); !ok {
		t.Fatal("private-frame port 4 target must read the East neighbor")
	}
	if _, ok := v2.at(4, east.Neighbor(4)); ok {
		t.Fatal("private-frame cell beyond the target must be vacant")
	}
}

func BenchmarkActivateAgent(b *testing.B) {
	cfg, err := core.Initial(core.LayoutSpiral, []int{50, 50}, 3)
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWorld(cfg, core.Params{Lambda: 4, Gamma: 4, Seed: 2}, 0)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.NewBuffered(1)
	n := w.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ActivateAgent(r.Intn(n), r)
	}
}
