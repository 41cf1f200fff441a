package sops

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestRunProbeMatchesStats attaches a probe through RunSpec while readers
// poll it concurrently (the -race lane's data-race proof); once Run
// returns, the probe's totals must equal the chain's own statistics
// exactly — the engines flush their final partial batch on exit. The
// 8,192- and 1,024-step runs end on a probe batch boundary, where the
// last step's outcome must still reach the probe.
func TestRunProbeMatchesStats(t *testing.T) {
	for _, steps := range []uint64{100_000, 8_192, 1_024} {
		t.Run(fmt.Sprint(steps), func(t *testing.T) {
			sys, err := New(Options{Counts: []int{10, 10}, Lambda: 4, Gamma: 4, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			probe := NewProbe()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						c := probe.Counters()
						if c.Accepted() > c.Steps {
							t.Error("accepted exceeds steps")
							return
						}
						probe.Status()
					}
				}()
			}
			done, err := sys.Run(context.Background(), RunSpec{
				Steps:     steps,
				Telemetry: &Telemetry{Probe: probe},
			})
			close(stop)
			wg.Wait()
			if err != nil || done != steps {
				t.Fatalf("run: done=%d err=%v", done, err)
			}
			st := sys.Stats()
			want := ProbeCounters{Steps: st.Steps, Moves: st.Moves, Swaps: st.Swaps, Rejected: st.Rejected}
			if c := probe.Counters(); c != want {
				t.Fatalf("probe totals %+v != chain stats %+v", c, want)
			}
			// The probe stays attached: further bare steps keep feeding it
			// after the next flushed batch or run.
			if _, err := sys.Run(context.Background(), RunSpec{Steps: 1_000}); err != nil {
				t.Fatal(err)
			}
			if c := probe.Counters(); c.Steps != steps+1_000 {
				t.Fatalf("probe after second run: %d steps, want %d", c.Steps, steps+1_000)
			}
		})
	}
}

// TestRunRecorderSamples runs with a sampling cadence and checks the
// recorder holds the trajectory at exactly the absolute step boundaries.
func TestRunRecorderSamples(t *testing.T) {
	sys, err := New(Options{Counts: []int{8, 8}, Lambda: 4, Gamma: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(64, 0)
	if _, err := sys.Run(context.Background(), RunSpec{
		Steps:       50_000,
		SampleEvery: 10_000,
		Telemetry:   &Telemetry{Recorder: rec},
	}); err != nil {
		t.Fatal(err)
	}
	samples := rec.Samples()
	if len(samples) != 5 {
		t.Fatalf("got %d samples, want 5", len(samples))
	}
	for i, s := range samples {
		if want := uint64(10_000 * (i + 1)); s.Snap.Steps != want {
			t.Fatalf("sample %d at step %d, want %d", i, s.Snap.Steps, want)
		}
		if s.Energy == 0 {
			t.Fatalf("sample %d has zero energy", i)
		}
	}
	if got, want := samples[4].Energy, sys.Energy(); got != want {
		t.Fatalf("final sample energy %v != System.Energy %v", got, want)
	}
}

// TestTraceIdenticalAcrossResume is the crash-safety contract for traces:
// one recorder following a run interrupted at an off-cadence step and
// resumed from its checkpoint must flush byte-identical CSV and JSONL
// traces to an uninterrupted run's. Absolute-step sample alignment plus
// the recorder's own cadence filter make the boundary invisible.
func TestTraceIdenticalAcrossResume(t *testing.T) {
	opts := Options{Counts: []int{10, 10}, Lambda: 4, Gamma: 4, Seed: 21}
	const total, every = 60_000, uint64(10_000)
	spec := func(steps uint64, rec *Recorder) RunSpec {
		return RunSpec{Steps: steps, SampleEvery: every, Telemetry: &Telemetry{Recorder: rec}}
	}

	uninterrupted, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	full := NewRecorder(64, every)
	if _, err := uninterrupted.Run(context.Background(), spec(total, full)); err != nil {
		t.Fatal(err)
	}

	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	split := NewRecorder(64, every)
	// Interrupt at 25k — mid-interval, so the run's final sample at 25k is
	// off-cadence and the recorder's filter drops it.
	if _, err := sys.Run(context.Background(), spec(25_000, split)); err != nil {
		t.Fatal(err)
	}
	blob, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Run(context.Background(), spec(total-restored.Steps(), split)); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(split.EncodeCSV(), full.EncodeCSV()) {
		t.Fatalf("CSV traces differ across resume:\n--- resumed ---\n%s--- uninterrupted ---\n%s",
			split.EncodeCSV(), full.EncodeCSV())
	}
	a, err := split.EncodeJSONL()
	if err != nil {
		t.Fatal(err)
	}
	b, err := full.EncodeJSONL()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("JSONL traces differ across resume")
	}
}

// TestRunFinalObserveOnCancel is the regression test for the cancellation
// sampling gap: a run cut short mid-interval must still invoke the
// observer once with the state it stopped in, instead of returning with
// the last interval's worth of trajectory unobserved.
func TestRunFinalObserveOnCancel(t *testing.T) {
	sys, err := New(Options{Counts: []int{8, 8}, Lambda: 4, Gamma: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var observed []uint64
	done, err := sys.Run(cancelled, RunSpec{Steps: 1_000, SampleEvery: 100, Observer: func(m Snapshot) bool {
		observed = append(observed, m.Steps)
		return true
	}})
	if done != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: done=%d err=%v", done, err)
	}
	if len(observed) != 1 || observed[0] != 0 {
		t.Fatalf("observer calls %v, want exactly one with the final state", observed)
	}

	// Same through the consolidated entry point, and the recorder gets the
	// final state too (Offer-filtered, Record-free path).
	rec := NewRecorder(8, 0)
	_, err = sys.Run(cancelled, RunSpec{Steps: 1_000, SampleEvery: 100, Telemetry: &Telemetry{Recorder: rec}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if rec.Len() != 1 {
		t.Fatalf("recorder got %d samples on cancelled run, want 1", rec.Len())
	}
}

func TestBadLayoutRejected(t *testing.T) {
	opts := Options{Counts: []int{5, 5}, Lambda: 4, Gamma: 4, Layout: Layout(99)}
	if err := opts.Validate(); !errors.Is(err, ErrBadLayout) {
		t.Fatalf("Validate: %v, want ErrBadLayout", err)
	}
	if _, err := New(opts); !errors.Is(err, ErrBadLayout) {
		t.Fatalf("New: %v, want ErrBadLayout", err)
	}
	if _, err := NewDistributed(opts); !errors.Is(err, ErrBadLayout) {
		t.Fatalf("NewDistributed: %v, want ErrBadLayout", err)
	}
	for _, ok := range []Layout{0, LayoutSpiral, LayoutLine} {
		opts.Layout = ok
		if err := opts.Validate(); err != nil {
			t.Fatalf("Layout %d rejected: %v", ok, err)
		}
	}
}

func TestSweepSpecValidate(t *testing.T) {
	valid := SweepSpec{
		Lambdas: []float64{4}, Gammas: []float64{4},
		Counts: []int{5, 5}, Steps: 100,
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*SweepSpec)
		want   error
	}{
		{"no lambdas", func(s *SweepSpec) { s.Lambdas = nil }, ErrEmptySweep},
		{"no gammas", func(s *SweepSpec) { s.Gammas = nil }, ErrEmptySweep},
		{"no steps", func(s *SweepSpec) { s.Steps = 0 }, ErrNoSteps},
		{"no counts", func(s *SweepSpec) { s.Counts = nil }, ErrNoCounts},
		{"negative count", func(s *SweepSpec) { s.Counts = []int{3, -1} }, ErrNoCounts},
		{"bad layout", func(s *SweepSpec) { s.Layout = Layout(7) }, ErrBadLayout},
	}
	for _, tc := range cases {
		spec := valid
		tc.mutate(&spec)
		if err := spec.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate() = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := Sweep(context.Background(), spec); !errors.Is(err, tc.want) {
			t.Errorf("%s: Sweep() = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Per-axis bias values are deliberately per-cell failures, not
	// Validate errors: the rest of the grid must still run.
	spec := valid
	spec.Lambdas = []float64{4, -1}
	if err := spec.Validate(); err != nil {
		t.Fatalf("axis value rejected by Validate: %v", err)
	}
}

// TestSweepProgress drives a small sweep with a caller-held Tracker, read
// from inside Observe after each cell completes, and checks the aggregate
// view converges to done == total with the failure counted.
func TestSweepProgress(t *testing.T) {
	tracker := new(SweepTracker)
	var last SweepProgress
	calls := 0
	_, err := Sweep(context.Background(), SweepSpec{
		Lambdas: []float64{4, -1}, // -1: that column's cell fails
		Gammas:  []float64{4},
		Counts:  []int{5, 5},
		Steps:   500,
		Workers: 2,
		Tracker: tracker,
		Observe: func(done, total int) { // calls are serialized
			calls++
			last = tracker.Progress()
		},
	})
	var sweepErr *SweepError
	if !errors.As(err, &sweepErr) {
		t.Fatalf("expected SweepError, got %v", err)
	}
	if calls != 2 {
		t.Fatalf("Observe called %d times, want 2", calls)
	}
	if last.Done != 2 || last.Total != 2 || last.Running != 0 {
		t.Fatalf("final progress %+v", last)
	}
	p := tracker.Progress()
	if p.Done != 2 || p.Failed != 1 {
		t.Fatalf("tracker progress %+v", p)
	}
}

// TestDistributedProbe runs the amoebot runtime with a probe attached: the
// published totals must match the scheduler's own accounting exactly once
// the run returns, at one worker and at four.
func TestDistributedProbe(t *testing.T) {
	for _, workers := range []int{1, 4} {
		d, err := NewDistributed(Options{Counts: []int{15, 15}, Lambda: 4, Gamma: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		probe := NewProbe()
		d.SetProbe(probe)
		performed, moves, swaps, err := d.RunContext(context.Background(), 60_000, workers)
		if err != nil {
			t.Fatal(err)
		}
		want := ProbeCounters{Steps: performed, Moves: moves, Swaps: swaps, Rejected: performed - moves - swaps}
		if c := probe.Counters(); c != want {
			t.Fatalf("workers=%d: probe %+v != scheduler %+v", workers, c, want)
		}
		if e := d.Energy(); e >= 0 {
			t.Fatalf("workers=%d: energy %v, want negative under λ,γ>1", workers, e)
		}
	}
}
