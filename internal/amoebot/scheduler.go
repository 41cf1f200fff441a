package amoebot

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"sops/internal/core"
	"sops/internal/fault"
	"sops/internal/rng"
)

// Result aggregates the outcomes of a scheduled run.
type Result struct {
	Activations uint64 // activations actually performed (dropped slots excluded)
	Moves       uint64
	Swaps       uint64
	Dropped     uint64 // activation slots consumed by injected faults
}

// cancelCheckInterval is the number of activations each activation source
// performs between polls of the context.
const cancelCheckInterval = 4096

// RunSequential activates uniformly random particles one at a time — the
// standard asynchronous model's canonical sequential execution. It draws
// the particle and then its activation from one buffered stream exactly
// as core.Chain.Step does, so from seed s it is the chain from seed s step
// for step until a proposal targets a cell outside the arena.
//
// It polls ctx every cancelCheckInterval activations and returns early
// with ctx's error if the context is done; Result.Activations reports the
// activations actually performed. Under a fault injector inj (nil for
// none), each activation slot first consults the injector's stream 0,
// which may drop the slot (crash-stopped or lossy source). The world is
// audited at its configured cadence and after every injected
// crash-recovery; an audit failure aborts the run with the
// *psys.InvariantError. A sequential faulty run is exactly reproducible
// from (seed, fault seed).
func RunSequential(ctx context.Context, w *World, activations uint64, seed uint64, inj *fault.Injector) (Result, error) {
	r := rng.NewBuffered(seed)
	var res Result
	var stream *fault.Stream
	if inj != nil {
		stream = inj.Stream(0)
		if hook := inj.LockDelay(); hook != nil {
			w.SetLockDelay(hook)
			defer w.SetLockDelay(nil)
		}
	}
	// Publish progress into the world's probe (if any) at every cancel-poll
	// boundary and on exit, so the run is observable in flight — dropped
	// slots included, which is what makes fault injection visible live.
	var pub Result
	flushProbe := func() {
		p := w.probe.Load()
		if p == nil || res == pub {
			return
		}
		da, dm, ds := res.Activations-pub.Activations, res.Moves-pub.Moves, res.Swaps-pub.Swaps
		p.Add(da, dm, ds, da-dm-ds)
		pub = res
	}
	defer flushProbe()
	n := w.N()
	for i := uint64(0); i < activations; i++ {
		if i%cancelCheckInterval == 0 {
			flushProbe()
			if err := ctx.Err(); err != nil {
				return res, err
			}
		}
		if stream != nil {
			d := stream.Next()
			if d.Recovered {
				if err := w.Audit(); err != nil {
					return res, err
				}
			}
			if d.Drop {
				res.Dropped++
				continue
			}
		}
		switch w.Activate(r.Intn(n), r) {
		case core.Moved:
			res.Moves++
		case core.Swapped:
			res.Swaps++
		}
		res.Activations++
		if err := w.maybeAudit(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// ErrNoWorkers is returned when RunConcurrent is invoked without workers.
var ErrNoWorkers = errors.New("amoebot: need at least one worker")

// RunConcurrent executes the activation budget across workers goroutines,
// each acting as an independent asynchronous activation source with its own
// random stream. Conflicting activations are serialized by the runtime's
// region locks, so any concurrent execution is equivalent to a sequential
// activation order (§2.1).
//
// Every worker polls ctx between batches of activations, so cancelling
// returns promptly with the activations performed so far and ctx's error;
// a cancelled run leaves the world in a valid quiescent state — only fewer
// activations happened. Under a fault injector inj (nil for none), worker
// wi draws its fault schedule from the injector's stream wi, so sources
// crash-stop, restart and drop activations deterministically per source
// (only the interleaving varies across runs), and stalls are injected at
// the activations' lock boundaries. The world is audited at its configured
// cadence and after every crash-recovery; the first audit failure stops all
// workers and is returned as a *psys.InvariantError.
func RunConcurrent(ctx context.Context, w *World, activations uint64, workers int, seed uint64, inj *fault.Injector) (Result, error) {
	if workers < 1 {
		return Result{}, ErrNoWorkers
	}
	if inj != nil {
		if hook := inj.LockDelay(); hook != nil {
			w.SetLockDelay(hook)
			defer w.SetLockDelay(nil)
		}
	}
	root := rng.New(seed)
	var performed, moves, swaps, dropped atomic.Uint64
	var auditErr atomic.Pointer[error] // first audit failure, stops all workers
	var wg sync.WaitGroup
	n := w.N()
	share := activations / uint64(workers)
	extra := activations % uint64(workers)
	for wi := 0; wi < workers; wi++ {
		budget := share
		if uint64(wi) < extra {
			budget++
		}
		stream := new(rng.Buffered)
		stream.SetState(root.NewStream())
		var faults *fault.Stream
		if inj != nil {
			faults = inj.Stream(wi)
		}
		wg.Add(1)
		go func(budget uint64, r *rng.Buffered, faults *fault.Stream) {
			defer wg.Done()
			// Each source batches its own probe publishes: cache-line
			// padded counters absorb the concurrent Adds without
			// false sharing, and the flush cadence matches the cancel
			// polls so live readers lag one batch at most.
			var bActs, bMoves, bSwaps uint64
			flushProbe := func() {
				if p := w.probe.Load(); p != nil && bActs > 0 {
					p.Add(bActs, bMoves, bSwaps, bActs-bMoves-bSwaps)
				}
				bActs, bMoves, bSwaps = 0, 0, 0
			}
			defer flushProbe()
			for i := uint64(0); i < budget; i++ {
				if i%cancelCheckInterval == 0 {
					flushProbe()
					if ctx.Err() != nil || auditErr.Load() != nil {
						return
					}
				}
				if faults != nil {
					d := faults.Next()
					if d.Recovered {
						if err := w.Audit(); err != nil {
							auditErr.CompareAndSwap(nil, &err)
							return
						}
					}
					if d.Drop {
						dropped.Add(1)
						continue
					}
				}
				switch w.Activate(r.Intn(n), r) {
				case core.Moved:
					moves.Add(1)
					bMoves++
				case core.Swapped:
					swaps.Add(1)
					bSwaps++
				}
				performed.Add(1)
				bActs++
				if err := w.maybeAudit(); err != nil {
					auditErr.CompareAndSwap(nil, &err)
					return
				}
			}
		}(budget, stream, faults)
	}
	wg.Wait()
	res := Result{
		Activations: performed.Load(),
		Moves:       moves.Load(),
		Swaps:       swaps.Load(),
		Dropped:     dropped.Load(),
	}
	if perr := auditErr.Load(); perr != nil {
		return res, *perr
	}
	return res, ctx.Err()
}
