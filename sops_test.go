package sops

import (
	"context"
	"strings"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Counts: []int{5, 5}, Lambda: 0, Gamma: 1}); err == nil {
		t.Fatal("invalid lambda accepted")
	}
	if _, err := New(Options{Counts: nil, Lambda: 4, Gamma: 4}); err == nil {
		t.Fatal("empty counts accepted")
	}
	if _, err := New(Options{Counts: []int{-1}, Lambda: 4, Gamma: 4}); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestSystemLifecycle(t *testing.T) {
	sys, err := New(Options{Counts: []int{10, 10}, Lambda: 4, Gamma: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.N() != 20 {
		t.Fatalf("N=%d", sys.N())
	}
	sys.RunSteps(50000)
	if sys.Steps() != 50000 {
		t.Fatalf("steps %d", sys.Steps())
	}
	m := sys.Metrics()
	if m.N != 20 || m.Steps != 50000 {
		t.Fatalf("metrics header %+v", m)
	}
	if m.Edges != m.HomEdges+m.HetEdges {
		t.Fatalf("inconsistent metrics %+v", m)
	}
	st := sys.Stats()
	if st.Moves+st.Swaps+st.Rejected != st.Steps {
		t.Fatalf("stats %+v", st)
	}
	if sys.Params().Lambda != 4 {
		t.Fatal("params lost")
	}
}

func TestSystemSeparatesAndClassifies(t *testing.T) {
	sys, err := New(Options{Counts: []int{25, 25}, Lambda: 4, Gamma: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.RunSteps(2000000)
	m := sys.Metrics()
	if m.Phase != CompressedSeparated {
		t.Fatalf("phase %v after long γ=4 run (seg=%v, α=%v)", m.Phase, m.Segregation, m.Alpha)
	}
}

func TestSeparatedStart(t *testing.T) {
	sys, err := New(Options{Counts: []int{25, 25}, Separated: true, Lambda: 4, Gamma: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m := sys.Metrics(); m.Phase != CompressedSeparated {
		t.Fatalf("separated start classified %v", m.Phase)
	}
}

func TestRunWithEarlyStop(t *testing.T) {
	sys, err := New(Options{Counts: []int{5, 5}, Lambda: 2, Gamma: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	sys.Run(context.Background(), RunSpec{Steps: 100000, SampleEvery: 1000, Observer: func(Snapshot) bool {
		calls++
		return calls < 5
	}})
	if calls != 5 {
		t.Fatalf("observer calls %d", calls)
	}
	if sys.Steps() != 5000 {
		t.Fatalf("early stop ran %d steps", sys.Steps())
	}
}

func TestRendering(t *testing.T) {
	sys, err := New(Options{Counts: []int{5, 5}, Lambda: 2, Gamma: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sys.ASCII() == "" {
		t.Fatal("empty ASCII render")
	}
	var b strings.Builder
	if err := sys.RenderSVG(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "<svg") {
		t.Fatal("not an SVG")
	}
}

func TestSnapshotIndependent(t *testing.T) {
	sys, err := New(Options{Counts: []int{8, 8}, Lambda: 3, Gamma: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot()
	sys.RunSteps(10000)
	if snap.N() != 16 {
		t.Fatal("snapshot mutated by run")
	}
}

func TestHelpersExposed(t *testing.T) {
	sys, err := New(Options{Counts: []int{10, 10}, Separated: true, Lambda: 4, Gamma: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sys.Snapshot()
	if !IsCompressed(cfg, 3) {
		t.Fatal("spiral not compressed")
	}
	if !IsSeparated(cfg, 4, 0.2) {
		t.Fatal("separated start not separated")
	}
	if got := Classify(cfg, DefaultThresholds()); got != CompressedSeparated {
		t.Fatalf("Classify = %v", got)
	}
	if s := Capture(cfg, 7, DefaultThresholds()); s.Steps != 7 {
		t.Fatal("Capture steps")
	}
}

func TestDistributedFacade(t *testing.T) {
	d, err := NewDistributed(Options{Counts: []int{10, 10}, Lambda: 4, Gamma: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 20 {
		t.Fatalf("N=%d", d.N())
	}
	_, moves, swaps, err := d.RunContext(context.Background(), 200000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 || swaps == 0 {
		t.Fatalf("no activity: moves=%d swaps=%d", moves, swaps)
	}
	snap := d.Snapshot()
	if !snap.Connected() || !snap.HoleFree() {
		t.Fatal("distributed run violated invariants")
	}
	if d.ASCII() == "" {
		t.Fatal("empty render")
	}
	var b strings.Builder
	if err := d.RenderSVG(&b); err != nil {
		t.Fatal(err)
	}
	if d.Metrics().N != 20 {
		t.Fatal("metrics wrong")
	}
	// Sequential path.
	if _, _, _, err := d.RunContext(context.Background(), 1000, 1); err != nil {
		t.Fatal(err)
	}
}

func TestNewDistributedValidation(t *testing.T) {
	if _, err := NewDistributed(Options{Counts: []int{3, 3}, Lambda: -1, Gamma: 1}); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := NewDistributed(Options{Counts: nil, Lambda: 1, Gamma: 1}); err == nil {
		t.Fatal("empty counts accepted")
	}
}

// TestNewDistributedBindsModel: NewDistributed binds Options.Model and
// Couplings as New does. Its Energy is the bound model's energy of the
// snapshot, an unset λ takes the model's default, and a model with a
// schedule is rejected by name.
func TestNewDistributedBindsModel(t *testing.T) {
	opts := Options{Counts: []int{10, 10, 10}, Lambda: 4, Gamma: 4, Seed: 3,
		Model: "alignment", Couplings: map[string]float64{"alpha": 6, "beta": 1.5}}
	d, err := NewDistributed(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := d.RunContext(context.Background(), 50000, 2); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	sys, err := NewFromConfig(snap.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.Energy(), sys.Energy(); got != want {
		t.Fatalf("Energy %v, alignment energy of the snapshot %v", got, want)
	}
	sep, err := NewFromConfig(snap.Clone(), Options{Lambda: 4, Gamma: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d.Energy() == sep.Energy() {
		t.Fatal("Energy is the separation energy")
	}
	if _, err := NewDistributed(Options{Counts: []int{10, 10, 10}, Model: "alignment"}); err != nil {
		t.Fatalf("alignment without lambda: %v", err)
	}
	_, err = NewDistributed(Options{Counts: []int{10, 10}, Lambda: 4, Gamma: 4, Model: "anneal"})
	if err == nil || !strings.Contains(err.Error(), "anneal") {
		t.Fatalf("anneal: %v, want an error naming anneal", err)
	}
}

func TestDistributedFreeze(t *testing.T) {
	d, err := NewDistributed(Options{Counts: []int{8, 8}, Lambda: 4, Gamma: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	d.SetFrozen(2, true)
	if !d.Frozen(2) || d.Frozen(3) {
		t.Fatal("freeze flags wrong")
	}
	if _, _, _, err := d.RunContext(context.Background(), 100000, 2); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	if !snap.Connected() || !snap.HoleFree() {
		t.Fatal("invariants violated with a frozen particle")
	}
	d.SetFrozen(2, false)
	if d.Frozen(2) {
		t.Fatal("unfreeze failed")
	}
}

func TestSystemCheckpointRestore(t *testing.T) {
	sys, err := New(Options{Counts: []int{8, 8}, Lambda: 4, Gamma: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	sys.RunSteps(20000)
	blob, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunSteps(20000)
	restored.RunSteps(20000)
	if sys.Config().CanonicalKey() != restored.Config().CanonicalKey() {
		t.Fatal("restored System diverged")
	}
	if sys.Stats() != restored.Stats() {
		t.Fatal("restored statistics diverged")
	}
	if _, err := Restore([]byte("junk"), nil); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}
