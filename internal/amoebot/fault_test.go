package amoebot

import (
	"context"
	"errors"
	"testing"
	"time"

	"sops/internal/core"
	"sops/internal/fault"
	"sops/internal/psys"
)

// faultyInjector builds an injector that exercises every fault kind with a
// short crash span, so crashes and recoveries both occur within the test's
// activation budget.
func faultyInjector(t *testing.T, seed uint64) *fault.Injector {
	t.Helper()
	inj, err := fault.New(fault.Options{
		Seed:      seed,
		CrashProb: 0.001,
		CrashLen:  200,
		DropFrac:  0.05,
		StallProb: 0.0005,
		Stall:     20 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestConcurrentFaultInjection is the acceptance test for the fault layer:
// activation sources crash-stop and restart mid-run while activations are
// dropped and stalled, concurrent snapshots are taken throughout, and every
// quiescent snapshot — plus the cadenced audits inside the run — passes
// CheckInvariants. Run under -race in CI.
func TestConcurrentFaultInjection(t *testing.T) {
	w := newWorld(t, []int{24, 24}, core.Params{Lambda: 4, Gamma: 4, Seed: 7})
	w.SetAuditEvery(20_000)
	inj := faultyInjector(t, 99)

	done := make(chan struct{})
	var runRes Result
	var runErr error
	go func() {
		defer close(done)
		runRes, runErr = Run(context.Background(), w, 600_000, 8, 5, inj)
	}()

	// Sample quiescent snapshots while sources crash and restart under us.
	snapshots := 0
sampling:
	for {
		if err := w.Snapshot().CheckInvariants(); err != nil {
			t.Fatalf("mid-run snapshot %d: %v", snapshots, err)
		}
		snapshots++
		select {
		case <-done:
			break sampling
		case <-time.After(2 * time.Millisecond):
		}
	}
	if runErr != nil {
		t.Fatalf("faulty run failed: %v", runErr)
	}

	st := inj.Stats()
	if st.Crashes == 0 {
		t.Fatal("no crash-stops were injected")
	}
	if st.Restarts == 0 {
		t.Fatal("no sources restarted")
	}
	if st.Dropped == 0 || runRes.Dropped != st.Dropped {
		t.Fatalf("dropped accounting: result %d, injector %d", runRes.Dropped, st.Dropped)
	}
	if runRes.Activations+runRes.Dropped != 600_000 {
		t.Fatalf("slots not conserved: %d performed + %d dropped != 600000",
			runRes.Activations, runRes.Dropped)
	}
	if w.Audits() == 0 {
		t.Fatal("no audits ran despite cadence and recoveries")
	}
	if err := w.Snapshot().CheckInvariants(); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
}

// TestSequentialFaultReproducible: a one-worker faulty run is a pure
// function of (scheduler seed, fault seed).
func TestSequentialFaultReproducible(t *testing.T) {
	run := func() (Result, string) {
		w := newWorld(t, []int{15, 15}, core.Params{Lambda: 3, Gamma: 3, Seed: 2})
		inj := faultyInjector(t, 42)
		res, err := Run(context.Background(), w, 200_000, 1, 9, inj)
		if err != nil {
			t.Fatal(err)
		}
		return res, w.Snapshot().CanonicalKey()
	}
	res1, key1 := run()
	res2, key2 := run()
	if res1 != res2 {
		t.Fatalf("results differ: %+v vs %+v", res1, res2)
	}
	if key1 != key2 {
		t.Fatal("final configurations differ across identical faulty runs")
	}
	if res1.Dropped == 0 {
		t.Fatal("fault schedule injected nothing")
	}
}

// TestAuditDetectsCorruption: a grid/registry mismatch is caught by Audit
// with a structured error naming the violated property.
func TestAuditDetectsCorruption(t *testing.T) {
	w := newWorld(t, []int{6, 6}, core.Params{Lambda: 2, Gamma: 2, Seed: 1})
	if err := w.Audit(); err != nil {
		t.Fatalf("healthy world fails audit: %v", err)
	}
	// Corrupt the grid behind the registry's back.
	c := w.cellAt(w.parts[0].pos)
	c.occupied = false
	var ie *psys.InvariantError
	if err := w.Audit(); !errors.As(err, &ie) || ie.Property != "registry" {
		t.Fatalf("corruption not detected: %v", err)
	}
	c.occupied = true
	c.particle = 99
	if err := w.Audit(); !errors.As(err, &ie) || ie.Property != "registry" {
		t.Fatalf("id mismatch not detected: %v", err)
	}
	c.particle = w.parts[0].id
	if err := w.Audit(); err != nil {
		t.Fatalf("restored world fails audit: %v", err)
	}
}

// TestCadencedAuditAbortsOnViolation: a mid-run audit failure stops the
// concurrent run and surfaces the invariant error.
func TestCadencedAuditAbortsOnViolation(t *testing.T) {
	w := newWorld(t, []int{8, 8}, core.Params{Lambda: 2, Gamma: 2, Seed: 3})
	// Sabotage the arena before the run; the first cadenced audit must trip.
	// Particle 0 is frozen so no activation heals the corrupted cell.
	w.SetFrozen(0, true)
	w.cellAt(w.parts[0].pos).particle = 77
	w.SetAuditEvery(1000)
	_, err := Run(context.Background(), w, 100_000, 4, 1, nil)
	var ie *psys.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("audit violation not surfaced: %v", err)
	}
}

// TestFaultRunHonorsCancellation: cancelling a faulty run returns promptly
// with the context error.
func TestFaultRunHonorsCancellation(t *testing.T) {
	w := newWorld(t, []int{10, 10}, core.Params{Lambda: 2, Gamma: 2, Seed: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, w, 1_000_000, 4, 1, faultyInjector(t, 5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v", err)
	}
}
