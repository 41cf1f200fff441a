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

// ErrNoWorkers is returned when Run is invoked without workers.
var ErrNoWorkers = errors.New("amoebot: need at least one worker")

// Run executes the activation budget across workers goroutines, each an
// independent asynchronous activation source that activates uniformly
// random particles from its own random stream. Conflicting activations
// are serialized by the runtime's region locks, so any concurrent
// execution is equivalent to a sequential activation order (§2.1).
//
// Worker wi draws from the wi-th stream split off rng.New(seed), and
// worker 0's stream is the one rng.NewBuffered(seed) starts, drawing the
// particle and then its activation exactly as core.Chain.Step does. So a
// one-worker run is the standard asynchronous model's sequential
// execution, and from seed s it is the chain from seed s step for step
// until a proposal targets a cell outside the arena.
//
// Every worker polls ctx between batches of activations, so cancelling
// returns promptly with the activations performed so far and ctx's error;
// a cancelled run leaves the world in a valid quiescent state — only fewer
// activations happened. Under a fault injector inj (nil for none), worker
// wi draws its fault schedule from the injector's stream wi, so sources
// crash-stop, restart and drop activation slots deterministically per
// source (only the interleaving varies across runs, and a one-worker
// faulty run is exactly reproducible from (seed, fault seed)), and stalls
// are injected at the activations' lock boundaries. The world is audited
// at its configured cadence and after every crash-recovery; the first
// audit failure stops all workers and is returned as a
// *psys.InvariantError.
func Run(ctx context.Context, w *World, activations uint64, workers int, seed uint64, inj *fault.Injector) (Result, error) {
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
	var mu sync.Mutex
	var res Result
	var auditErr atomic.Pointer[error] // first audit failure, stops all workers
	// fail records an audit failure. Taking the address of its own
	// parameter keeps the hot loop's error variables off the heap.
	fail := func(err error) { auditErr.CompareAndSwap(nil, &err) }
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
			// The source keeps its counts locally and adds them to the
			// result once, when it exits. It publishes to the probe in
			// batches: cache-line padded counters absorb the concurrent
			// Adds without false sharing, and the flush cadence matches
			// the cancel polls so live readers lag one batch at most.
			var own, pub Result
			flushProbe := func() {
				if p := w.probe.Load(); p != nil && own.Activations > pub.Activations {
					da, dm, ds := own.Activations-pub.Activations, own.Moves-pub.Moves, own.Swaps-pub.Swaps
					p.Add(da, dm, ds, da-dm-ds)
				}
				pub = own
			}
			defer func() {
				flushProbe()
				mu.Lock()
				res.Activations += own.Activations
				res.Moves += own.Moves
				res.Swaps += own.Swaps
				res.Dropped += own.Dropped
				mu.Unlock()
			}()
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
							fail(err)
							return
						}
					}
					if d.Drop {
						own.Dropped++
						continue
					}
				}
				switch w.Activate(r.Intn(n), r) {
				case core.Moved:
					own.Moves++
				case core.Swapped:
					own.Swaps++
				}
				own.Activations++
				if err := w.maybeAudit(); err != nil {
					fail(err)
					return
				}
			}
		}(budget, stream, faults)
	}
	wg.Wait()
	if perr := auditErr.Load(); perr != nil {
		return res, *perr
	}
	return res, ctx.Err()
}
