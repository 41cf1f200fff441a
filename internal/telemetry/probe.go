// Package telemetry is the live observability layer: zero-allocation
// counters the simulation hot paths publish into (Probe), a bounded trace
// recorder that samples metric snapshots along a trajectory and flushes
// them as CSV/JSONL artifacts (Recorder), a live aggregate view of a
// parameter sweep (SweepTracker), and an HTTP debug server exposing all of
// it — plus expvar and pprof — while long runs are in flight (Server).
//
// The package sits below the execution engines: core.Chain and the amoebot
// schedulers publish into a Probe in amortized batches, the runner publishes
// sweep lifecycle events into a SweepTracker, and everything here is safe to
// read concurrently while those writers run. Nothing in this package imports
// the engines, so it stays a leaf dependency on the hot path.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// padded is a cache-line padded atomic counter: each counter owns its own
// 64-byte line so concurrent writers (amoebot activation sources, sweep
// workers) never false-share, and the single-writer chain pays only the
// uncontended LOCK ADD.
type padded struct {
	v atomic.Uint64
	_ [56]byte
}

// Probe is a set of live, concurrently readable counters describing the
// progress of one execution (a chain run, a distributed run, or a whole
// sweep when shared across cells). Writers publish deltas with Add —
// engines batch their publishes so the per-step cost on the hot path is a
// nil-check — and readers take Counters or Status snapshots at any time.
//
// The zero value is not ready; use NewProbe (it anchors the monotonic clock
// used for rates).
type Probe struct {
	steps    padded
	moves    padded
	swaps    padded
	rejected padded

	start time.Time // monotonic anchor for Elapsed and steps/sec

	// Windowed-rate state, touched only by readers under mu: Status
	// measures steps/sec between successive calls, so a live endpoint
	// polling the probe sees current throughput, not the lifetime mean.
	mu        sync.Mutex
	lastAt    time.Time
	lastSteps uint64
}

// NewProbe returns a ready Probe anchored at the current time.
func NewProbe() *Probe {
	now := time.Now()
	return &Probe{start: now, lastAt: now}
}

// Add publishes a batch of outcomes: steps proposals, of which moves and
// swaps were accepted and rejected left the configuration unchanged.
// Safe for concurrent use by multiple writers.
func (p *Probe) Add(steps, moves, swaps, rejected uint64) {
	p.steps.v.Add(steps)
	p.moves.v.Add(moves)
	p.swaps.v.Add(swaps)
	p.rejected.v.Add(rejected)
}

// Counters is a point-in-time reading of a Probe's totals.
type Counters struct {
	Steps    uint64 `json:"steps"`
	Moves    uint64 `json:"moves"`
	Swaps    uint64 `json:"swaps"`
	Rejected uint64 `json:"rejected"`
}

// Accepted returns the accepted proposals (moves + swaps).
func (c Counters) Accepted() uint64 { return c.Moves + c.Swaps }

// AcceptanceRate returns the fraction of proposals accepted, 0 before any
// step.
func (c Counters) AcceptanceRate() float64 {
	if c.Steps == 0 {
		return 0
	}
	return float64(c.Accepted()) / float64(c.Steps)
}

// SwapFraction returns the fraction of proposals that were accepted swaps,
// 0 before any step.
func (c Counters) SwapFraction() float64 {
	if c.Steps == 0 {
		return 0
	}
	return float64(c.Swaps) / float64(c.Steps)
}

// Counters reads the probe's totals. Each counter is individually exact;
// between a writer's batches the tuple can be mid-publish, so treat it as a
// live reading, not a consistency point. Steps is loaded last: Add
// publishes steps first, so every outcome a reading counts has its step
// counted too, and Moves+Swaps+Rejected never exceeds Steps. After an
// engine's run returns (and has flushed), the totals equal the engine's
// own statistics exactly.
func (p *Probe) Counters() Counters {
	c := Counters{
		Moves:    p.moves.v.Load(),
		Swaps:    p.swaps.v.Load(),
		Rejected: p.rejected.v.Load(),
	}
	c.Steps = p.steps.v.Load()
	return c
}

// Elapsed returns the monotonic time since the probe was created.
func (p *Probe) Elapsed() time.Duration { return time.Since(p.start) }

// Status is a derived, human-oriented reading of a Probe.
type Status struct {
	Counters
	AcceptanceRate float64       `json:"acceptanceRate"`
	SwapFraction   float64       `json:"swapFraction"`
	StepsPerSec    float64       `json:"stepsPerSec"` // over the window since the previous Status call
	Elapsed        time.Duration `json:"elapsed"`
}

// Status reads the totals and derives rates. StepsPerSec is measured over
// the monotonic window since the previous Status call (the lifetime mean on
// the first call), so periodic pollers — the /debug/sops endpoint, a
// progress printer — see current throughput.
func (p *Probe) Status() Status {
	c := p.Counters()
	now := time.Now()
	p.mu.Lock()
	window := now.Sub(p.lastAt)
	var delta uint64
	// Concurrent Status callers can arrive with reads taken in either
	// order; never move the window backwards.
	if c.Steps > p.lastSteps {
		delta = c.Steps - p.lastSteps
		p.lastSteps = c.Steps
	}
	if window > 0 {
		p.lastAt = now
	}
	p.mu.Unlock()
	rate := 0.0
	if window > 0 {
		rate = float64(delta) / window.Seconds()
	}
	return Status{
		Counters:       c,
		AcceptanceRate: c.AcceptanceRate(),
		SwapFraction:   c.SwapFraction(),
		StepsPerSec:    rate,
		Elapsed:        time.Since(p.start),
	}
}
