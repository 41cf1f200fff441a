// Steady-state allocation contracts for the public API: after burn-in, the
// simulation and measurement hot paths must not touch the heap.
package sops_test

import (
	"context"
	"io"
	"testing"

	"sops"
)

func TestSystemStepAllocs(t *testing.T) {
	sys, err := sops.New(sops.Options{
		Counts: []int{50, 50},
		Lambda: 4, Gamma: 4,
		Layout: sops.LayoutLine,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.RunSteps(200_000)
	if avg := testing.AllocsPerRun(5000, func() {
		sys.Step()
	}); avg != 0 {
		t.Fatalf("System.Step allocates %v times per step at steady state", avg)
	}
}

// TestSystemStepProbeAllocs: attaching a telemetry probe must not put
// allocations on the step hot path — publishing is an amortized batch of
// plain atomic adds.
func TestSystemStepProbeAllocs(t *testing.T) {
	sys, err := sops.New(sops.Options{
		Counts: []int{50, 50},
		Lambda: 4, Gamma: 4,
		Layout: sops.LayoutLine,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := sops.NewProbe()
	if _, err := sys.Run(context.Background(), sops.RunSpec{
		Steps:     200_000,
		Telemetry: &sops.Telemetry{Probe: probe},
	}); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(5000, func() {
		sys.Step()
	}); avg != 0 {
		t.Fatalf("System.Step with probe allocates %v times per step", avg)
	}
	if probe.Counters().Steps == 0 {
		t.Fatal("probe never published")
	}
}

func TestSystemMetricsAllocs(t *testing.T) {
	sys, err := sops.New(sops.Options{
		Counts: []int{50, 50},
		Lambda: 4, Gamma: 4,
		Layout: sops.LayoutLine,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.RunSteps(100_000)
	if avg := testing.AllocsPerRun(200, func() {
		snap := sys.Metrics()
		if snap.N != 100 {
			t.Fatal("bad snapshot")
		}
	}); avg != 0 {
		t.Fatalf("System.Metrics allocates %v times per run at steady state", avg)
	}
}

// TestSystemWriteCheckpointAllocs: once its scratch is warm (AllocsPerRun's
// warm-up call), the snapbin checkpoint encoder writes a whole n = 1,000
// configuration without touching the heap.
func TestSystemWriteCheckpointAllocs(t *testing.T) {
	sys, err := sops.New(sops.Options{
		Counts: sops.Bichromatic(1_000),
		Lambda: 4, Gamma: 4,
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.RunSteps(100_000)
	if avg := testing.AllocsPerRun(200, func() {
		if err := sys.WriteCheckpointTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("System.WriteCheckpointTo allocates %v times per checkpoint at steady state", avg)
	}
}
