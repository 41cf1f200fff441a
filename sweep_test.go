package sops

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := SweepSpec{
		Lambdas: []float64{1.05, 4},
		Gammas:  []float64{1, 4},
		Seeds:   []uint64{1, 2},
		Counts:  Bichromatic(20),
		Layout:  LayoutLine,
		Steps:   30_000,
		Seed:    1,
	}
	var base []CellResult
	for _, workers := range []int{1, 4, 16} {
		spec.Workers = workers
		got, err := Sweep(context.Background(), spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 8 {
			t.Fatalf("workers=%d: %d cells", workers, len(got))
		}
		if base == nil {
			base = got
			continue
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d produced different results than workers=1", workers)
		}
	}
	// Cells are enumerated λ-major, then γ, then seed.
	if base[0].Lambda != 1.05 || base[0].Gamma != 1 || base[0].Seed != 1 {
		t.Fatalf("cell order: %+v", base[0])
	}
	if base[1].Seed != 2 || base[2].Gamma != 4 || base[4].Lambda != 4 {
		t.Fatalf("cell order: %+v %+v %+v", base[1], base[2], base[4])
	}
}

func TestSweepMatchesSerialSystem(t *testing.T) {
	spec := SweepSpec{
		Lambdas: []float64{4},
		Gammas:  []float64{4},
		Counts:  Bichromatic(20),
		Layout:  LayoutLine,
		Steps:   20_000,
		Seed:    9,
		Workers: 4,
	}
	cells, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Options{Counts: Bichromatic(20), Layout: LayoutLine, Lambda: 4, Gamma: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sys.RunSteps(20_000)
	if cells[0].Snap != sys.Metrics() {
		t.Fatalf("sweep cell diverges from serial run:\n%+v\n%+v", cells[0].Snap, sys.Metrics())
	}
}

// TestSweepFigure3SmallGridPhases: Figure 3's separation grid is a sweep
// from the line start with one seed in every cell.
func TestSweepFigure3SmallGridPhases(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	// Two extreme corners reproduce the two compressed phases quickly.
	cells, err := Sweep(context.Background(), SweepSpec{
		Lambdas: []float64{4},
		Gammas:  []float64{1, 5},
		Counts:  Bichromatic(50),
		Layout:  LayoutLine,
		Steps:   1_500_000,
		Seed:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells", len(cells))
	}
	byGamma := map[float64]Phase{}
	for _, c := range cells {
		byGamma[c.Gamma] = c.Snap.Phase
	}
	if byGamma[5] != CompressedSeparated {
		t.Fatalf("γ=5 phase %v", byGamma[5])
	}
	if byGamma[1] != CompressedIntegrated {
		t.Fatalf("γ=1 phase %v", byGamma[1])
	}
}

func TestSweepObserveAndValidation(t *testing.T) {
	if _, err := Sweep(context.Background(), SweepSpec{Counts: Bichromatic(10), Steps: 1}); !errors.Is(err, ErrEmptySweep) {
		t.Fatalf("empty grid error %v", err)
	}
	var mu sync.Mutex
	calls := 0
	_, err := Sweep(context.Background(), SweepSpec{
		Lambdas: []float64{2, 4},
		Gammas:  []float64{2},
		Counts:  Bichromatic(10),
		Steps:   100,
		Workers: 2,
		Observe: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if total != 2 || done < 1 || done > 2 {
				t.Errorf("observe(%d, %d)", done, total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("observer called %d times", calls)
	}
}

func TestSweepAggregatesCellErrors(t *testing.T) {
	// γ = 0 cells fail validation; the λ×γ sweep must still deliver the
	// healthy cells and identify the broken ones.
	cells, err := Sweep(context.Background(), SweepSpec{
		Lambdas: []float64{4},
		Gammas:  []float64{4, 0},
		Counts:  Bichromatic(10),
		Steps:   100,
		Seed:    3,
	})
	if err == nil {
		t.Fatal("invalid cells not reported")
	}
	if !errors.Is(err, ErrBadGamma) {
		t.Fatalf("aggregate error %v does not unwrap to ErrBadGamma", err)
	}
	if cells[0].Err != nil || cells[0].Snap.N != 10 {
		t.Fatalf("healthy cell %+v", cells[0])
	}
	if !errors.Is(cells[1].Err, ErrBadGamma) {
		t.Fatalf("failed cell error %v", cells[1].Err)
	}
}

func TestSweepCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	cells, err := Sweep(ctx, SweepSpec{
		Lambdas: []float64{1.05, 2, 4, 6},
		Gammas:  []float64{1, 2, 4, 6},
		Counts:  Bichromatic(100),
		Layout:  LayoutLine,
		Steps:   1 << 40, // far beyond any time budget: only cancellation ends cells
		Seed:    1,
		Workers: 4,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sweep error %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: %v", elapsed)
	}
	if len(cells) != 16 {
		t.Fatalf("%d cells", len(cells))
	}
	for _, c := range cells {
		if c.Err == nil {
			t.Fatalf("cell (%g, %g) claims completion of 2^40 steps", c.Lambda, c.Gamma)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d -> %d", before, n)
	}
}

func TestNamedOptionErrors(t *testing.T) {
	cases := []struct {
		opts Options
		want error
	}{
		{Options{Lambda: 4, Gamma: 4}, ErrNoCounts},
		{Options{Counts: []int{0, 0}, Lambda: 4, Gamma: 4}, ErrNoCounts},
		{Options{Counts: []int{5, -1}, Lambda: 4, Gamma: 4}, ErrNoCounts},
		{Options{Counts: []int{5, 5}, Lambda: 0, Gamma: 4}, ErrBadLambda},
		{Options{Counts: []int{5, 5}, Lambda: math.NaN(), Gamma: 4}, ErrBadLambda},
		{Options{Counts: []int{5, 5}, Lambda: math.Inf(1), Gamma: 4}, ErrBadLambda},
		{Options{Counts: []int{5, 5}, Lambda: 4, Gamma: -2}, ErrBadGamma},
		{Options{Counts: []int{5, 5}, Lambda: 4, Gamma: math.NaN()}, ErrBadGamma},
	}
	for _, tc := range cases {
		if err := tc.opts.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("Validate(%+v) = %v, want %v", tc.opts, err, tc.want)
		}
		if _, err := New(tc.opts); !errors.Is(err, tc.want) {
			t.Errorf("New(%+v) = %v, want %v", tc.opts, err, tc.want)
		}
		if _, err := NewDistributed(tc.opts); !errors.Is(err, tc.want) {
			t.Errorf("NewDistributed(%+v) = %v, want %v", tc.opts, err, tc.want)
		}
	}
	if err := (Options{Counts: []int{5, 5}, Lambda: 4, Gamma: 4}).Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func TestSystemRunContext(t *testing.T) {
	mk := func() *System {
		sys, err := New(Options{Counts: []int{10, 10}, Lambda: 4, Gamma: 4, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	plain, ctxed := mk(), mk()
	plain.RunSteps(40_000)
	done, err := ctxed.Run(context.Background(), RunSpec{Steps: 40_000})
	if err != nil || done != 40_000 {
		t.Fatalf("Run: done=%d err=%v", done, err)
	}
	if plain.Config().CanonicalKey() != ctxed.Config().CanonicalKey() {
		t.Fatal("Run diverges from RunSteps")
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if done, err := ctxed.Run(cancelled, RunSpec{Steps: 1000}); done != 0 || err == nil {
		t.Fatalf("pre-cancelled Run: done=%d err=%v", done, err)
	}
}

func TestSystemRunWithContext(t *testing.T) {
	sys, err := New(Options{Counts: []int{5, 5}, Lambda: 2, Gamma: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	done, err := sys.Run(context.Background(), RunSpec{Steps: 100_000, SampleEvery: 1000, Observer: func(Snapshot) bool {
		calls++
		return calls < 5
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 || done != 5000 {
		t.Fatalf("early stop: calls=%d done=%d", calls, done)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if done, err := sys.Run(cancelled, RunSpec{Steps: 1000, SampleEvery: 10, Observer: func(Snapshot) bool { return true }}); done != 0 || err == nil {
		t.Fatalf("pre-cancelled Run: done=%d err=%v", done, err)
	}
}

// TestDistributedConcurrentObservation exercises Snapshot and SetFrozen
// while a concurrent run is in flight — the documented safe concurrent
// surface — and is meant to run under -race.
func TestDistributedConcurrentObservation(t *testing.T) {
	d, err := NewDistributed(Options{Counts: []int{20, 20}, Lambda: 4, Gamma: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := d.Snapshot()
			if snap.N() != 40 {
				t.Error("snapshot lost particles")
				return
			}
			d.SetFrozen(3, true)
			_ = d.Frozen(3)
			d.SetFrozen(3, false)
		}
	}()
	performed, _, _, err := d.RunContext(context.Background(), 300_000, 4)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if performed != 300_000 {
		t.Fatalf("performed %d activations", performed)
	}
	snap := d.Snapshot()
	if !snap.Connected() || !snap.HoleFree() {
		t.Fatal("invariants violated under concurrent observation")
	}
}

func TestDistributedRunContextCancellation(t *testing.T) {
	d, err := NewDistributed(Options{Counts: []int{20, 20}, Lambda: 4, Gamma: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	performed, _, _, err := d.RunContext(ctx, 1<<40, 4)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation not prompt")
	}
	if performed == 0 || performed >= 1<<40 {
		t.Fatalf("performed %d", performed)
	}
	snap := d.Snapshot()
	if !snap.Connected() || !snap.HoleFree() {
		t.Fatal("cancelled run violated invariants")
	}
	// Metrics reflect only the activations actually performed.
	if m := d.Metrics(); m.Steps != performed {
		t.Fatalf("metrics steps %d != performed %d", m.Steps, performed)
	}
}

func TestDistributedDeterministicScheduling(t *testing.T) {
	run := func() *Config {
		d, err := NewDistributed(Options{Counts: []int{15, 15}, Lambda: 4, Gamma: 4, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		// Two sequential runs: each consumes the next scheduler seed.
		if _, _, _, err := d.RunContext(context.Background(), 50_000, 1); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := d.RunContext(context.Background(), 50_000, 1); err != nil {
			t.Fatal(err)
		}
		return d.Snapshot()
	}
	if run().CanonicalKey() != run().CanonicalKey() {
		t.Fatal("RunContext scheduling not reproducible from Options.Seed")
	}
}
