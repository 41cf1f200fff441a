// Command sops runs a single separation/integration simulation and reports
// its progress and final state.
//
// Usage:
//
//	sops -n 100 -k 2 -lambda 4 -gamma 4 -iters 5000000 -progress 10 -ascii
//
// Flags select the workload (particle count, color classes, initial
// layout), the bias parameters, and the reporting (progress lines, final
// ASCII art, optional SVG file).
//
// Long centralized runs survive crashes with -checkpoint: the chain state
// is written atomically on an interval (and on Ctrl-C), and -resume
// continues the exact trajectory. On the distributed runtime
// (-workers > 0), -crash-prob/-drop-frac/-stall-prob inject deterministic
// faults seeded by -fault-seed, and -audit-every verifies the model's
// invariants while the run is in flight.
//
// Runs are observable while in flight: -listen starts a local debug server
// with live counters (/debug/sops), expvar (/debug/vars) and pprof
// (/debug/pprof/), and -trace records the trajectory to a CSV, JSONL or
// binary .sbt file on the -trace-every cadence.
//
// -convert transcodes durable artifacts between the binary snapbin wire
// format and the text interchange formats, sniffing the input kind:
//
//	sops -convert run.ckpt -o run.json        # binary checkpoint → JSON
//	sops -convert run.json -o run.ckpt        # and back, checkpoint-exact
//	sops -convert trace.sbt -o trace.jsonl    # binary trace → JSON lines
//	sops -convert trace.jsonl -o trace.sbt    # and back, losslessly
//	sops -convert trace.sbt -o trace.csv      # one-way table export
//	sops -convert sweep.ckpt -o sweep.json    # sweep manifest, either way
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"sops"
	"sops/internal/atomicio"
	"sops/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sops:", friendly(err))
		os.Exit(1)
	}
}

// friendly rewrites the library's named validation errors in terms of this
// command's flags, so a bad invocation says which flag to fix instead of
// echoing an internal error chain.
func friendly(err error) string {
	switch {
	case errors.Is(err, sops.ErrNoCounts):
		return "-n and -k must describe at least one particle per color class"
	case errors.Is(err, sops.ErrBadLambda):
		return "-lambda must be positive and finite"
	case errors.Is(err, sops.ErrBadGamma):
		return "-gamma must be positive and finite"
	case errors.Is(err, sops.ErrBadLayout):
		return "initial layout must be the spiral default or -line"
	case errors.Is(err, sops.ErrUnknownModel):
		return "-model must name a registered model; see -list-models"
	case errors.Is(err, sops.ErrBadCoupling):
		return "-couplings must list name=value pairs the -model declares; see -list-models"
	}
	return err.Error()
}

// parseCouplings parses the -couplings flag: comma-separated name=value
// pairs, e.g. "lambda=4,alpha=6".
func parseCouplings(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("-couplings entry %q is not name=value", pair)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("-couplings %s: %v", name, err)
		}
		out[strings.TrimSpace(name)] = v
	}
	return out, nil
}

// listModels prints the registered models, their couplings and their
// observables.
func listModels() {
	for _, m := range sops.Models() {
		fmt.Printf("%s\n", m.Name)
		for _, c := range m.Couplings {
			kind := ""
			if c.Integer {
				kind = ", integer"
			}
			fmt.Printf("  coupling %-12s (default %g%s)\n", c.Name, c.Default, kind)
		}
		for _, o := range m.Observables {
			fmt.Printf("  observable %s\n", o)
		}
	}
}

func run() error {
	var (
		n         = flag.Int("n", 100, "total number of particles")
		k         = flag.Int("k", 2, "number of color classes (split evenly)")
		lambda    = flag.Float64("lambda", 4, "neighbor bias λ")
		gamma     = flag.Float64("gamma", 4, "like-color bias γ")
		model     = flag.String("model", "", "dynamics model to run (default separation; see -list-models)")
		couplings = flag.String("couplings", "", "model coupling overrides as name=value,... (e.g. alpha=6,beta=2)")
		listM     = flag.Bool("list-models", false, "list registered models with their couplings and observables, then exit")
		iters     = flag.Uint64("iters", 5_000_000, "chain iterations")
		seed      = flag.Uint64("seed", 1, "random seed")
		line      = flag.Bool("line", false, "start from a line instead of a spiral")
		separated = flag.Bool("separated", false, "start fully separated")
		noswap    = flag.Bool("noswap", false, "disable swap moves")
		progress  = flag.Int("progress", 10, "number of progress lines")
		ascii     = flag.Bool("ascii", true, "print final configuration as ASCII")
		svgPath   = flag.String("svg", "", "write final configuration as SVG to this path")
		workers   = flag.Int("workers", 0, "run on the distributed amoebot runtime with this many concurrent workers (0 = centralized chain)")

		ckpt      = flag.String("checkpoint", "", "checkpoint the chain state to this file on an interval (atomic; centralized runs)")
		ckptEvery = flag.Uint64("checkpoint-every", 1_000_000, "steps between checkpoint writes")
		resume    = flag.Bool("resume", false, "resume the run from the -checkpoint file")

		listen = flag.String("listen", "", "serve live status, expvar and pprof on this address (e.g. localhost:6060)")
		trace  = flag.String("trace", "", "record the trajectory to this file (.csv, .jsonl/.ndjson for JSON lines, or .sbt for the packed binary trace)")

		convert    = flag.String("convert", "", "convert an artifact (checkpoint, trace, or sweep manifest) to the format -o names, then exit")
		outPath    = flag.String("o", "", "output path for -convert (extension selects the format)")
		traceEvery = flag.Uint64("trace-every", 100_000, "steps between trace samples")

		faultSeed  = flag.Uint64("fault-seed", 0, "fault-injection seed (distributed runs)")
		crashProb  = flag.Float64("crash-prob", 0, "per-slot probability an activation source crash-stops")
		crashLen   = flag.Uint64("crash-len", 0, "activation slots a crash lasts (0 = default)")
		dropFrac   = flag.Float64("drop-frac", 0, "fraction of activation slots dropped")
		stallProb  = flag.Float64("stall-prob", 0, "per-activation probability of a lock-boundary stall")
		auditEvery = flag.Uint64("audit-every", 0, "verify invariants every this many activations (0 = off)")
	)
	flag.Parse()

	if *listM {
		listModels()
		return nil
	}
	if *convert != "" {
		return runConvert(*convert, *outPath)
	}
	coupMap, err := parseCouplings(*couplings)
	if err != nil {
		return err
	}

	counts := make([]int, *k)
	for i := range counts {
		counts[i] = *n / *k
		if i < *n%*k {
			counts[i]++
		}
	}
	layout := sops.LayoutSpiral
	if *line {
		layout = sops.LayoutLine
	}
	opts := sops.Options{
		Counts:       counts,
		Layout:       layout,
		Separated:    *separated,
		Lambda:       *lambda,
		Gamma:        *gamma,
		Model:        *model,
		Couplings:    coupMap,
		DisableSwaps: *noswap,
		Seed:         *seed,
	}
	if *workers > 0 {
		faults := sops.FaultOptions{
			Seed:      *faultSeed,
			CrashProb: *crashProb,
			CrashLen:  *crashLen,
			DropFrac:  *dropFrac,
			StallProb: *stallProb,
		}
		return runDistributed(opts, *iters, *workers, *ascii, faults, *auditEvery, *listen)
	}
	var sys *sops.System
	if *resume {
		if *ckpt == "" {
			return fmt.Errorf("-resume requires -checkpoint")
		}
		if sys, err = sops.RestoreFile(*ckpt, nil); err != nil {
			return err
		}
		fmt.Printf("resumed from %s at step %d\n", *ckpt, sys.Steps())
	} else if sys, err = sops.New(opts); err != nil {
		return err
	}
	if *ckpt != "" {
		sys.SetAutoCheckpoint(*ckpt, *ckptEvery)
	}

	probe := sops.NewProbe()
	var rec *sops.Recorder
	if *trace != "" {
		rec = sops.NewRecorder(1<<16, *traceEvery)
	}
	if *listen != "" {
		srv := telemetry.NewServer(telemetry.Sources{
			Probe:    probe,
			Recorder: rec,
			Info: map[string]any{
				"workload": "centralized chain",
				"n":        *n, "colors": *k, "lambda": *lambda, "gamma": *gamma,
				"iters": *iters, "seed": *seed,
			},
		})
		addr, err := srv.Start(*listen)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("debug server on http://%s/debug/sops (also /debug/vars, /debug/pprof/)\n", addr)
	}

	fmt.Printf("n=%d colors=%d λ=%g γ=%g iters=%d seed=%d\n", *n, *k, *lambda, *gamma, *iters, *seed)
	fmt.Printf("%12s %6s %6s %7s %5s %5s %8s %8s  %s\n",
		"steps", "perim", "p_min", "alpha", "edges", "het", "segr", "cluster", "phase")
	printRow := func(m sops.Snapshot) {
		fmt.Printf("%12d %6d %6d %7.3f %5d %5d %8.3f %8.3f  %s\n",
			m.Steps, m.Perimeter, m.MinPerimeter, m.Alpha, m.Edges, m.HetEdges,
			m.Segregation, m.LargestFrac, m.Phase)
	}
	printRow(sys.Metrics())
	// Ctrl-C cancels the run; with -checkpoint the state at the moment of
	// interruption is flushed, so -resume picks up exactly there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var remaining uint64
	if sys.Steps() < *iters {
		remaining = *iters - sys.Steps()
	}
	interval := remaining
	if *progress > 0 {
		interval = remaining / uint64(*progress)
	}
	if interval == 0 {
		interval = 1
	}
	// The run samples at the finer of the progress and trace cadences; the
	// observer prints only the progress rows, the recorder keeps its own.
	sample := interval
	if rec != nil && *traceEvery > 0 && *traceEvery < sample {
		sample = *traceEvery
	}
	if _, err := sys.Run(ctx, sops.RunSpec{
		Steps:       remaining,
		SampleEvery: sample,
		Observer: func(m sops.Snapshot) bool {
			if sample == interval || m.Steps%interval == 0 || m.Steps >= *iters {
				printRow(m)
			}
			return true
		},
		Telemetry: &sops.Telemetry{Probe: probe, Recorder: rec},
	}); err != nil {
		// A bare ctx error is a clean interrupt (with -checkpoint, one
		// whose state was saved); a failed checkpoint write comes joined.
		if err != ctx.Err() {
			return err
		}
		msg := "interrupted"
		if *ckpt != "" {
			msg += "; state checkpointed to " + *ckpt + " (continue with -resume)"
		}
		fmt.Println(msg)
	}
	if rec != nil {
		if err := rec.WriteFile(*trace); err != nil {
			return err
		}
		fmt.Printf("wrote %d trace samples to %s\n", rec.Len(), *trace)
	}

	st := sys.Stats()
	fmt.Printf("accepted: %d moves, %d swaps, %d rejected (%.1f%% acceptance)\n",
		st.Moves, st.Swaps, st.Rejected,
		100*float64(st.Moves+st.Swaps)/float64(st.Steps))
	if name := sys.Model(); name != "separation" {
		names, vals := sys.Observables()
		parts := make([]string, len(names))
		for i := range names {
			parts[i] = fmt.Sprintf("%s=%.4f", names[i], vals[i])
		}
		fmt.Printf("model %s: %s\n", name, strings.Join(parts, " "))
	}
	if *ascii {
		fmt.Println(sys.ASCII())
	}
	if *svgPath != "" {
		f, err := atomicio.Create(*svgPath)
		if err != nil {
			return err
		}
		if err := sys.RenderSVG(f); err != nil {
			f.Abort()
			return err
		}
		if err := f.Commit(); err != nil {
			return err
		}
		fmt.Println("wrote", *svgPath)
	}
	return nil
}

// runDistributed executes the workload on the concurrent amoebot runtime,
// optionally under deterministic fault injection and invariant auditing.
func runDistributed(opts sops.Options, iters uint64, workers int, ascii bool, faults sops.FaultOptions, auditEvery uint64, listen string) error {
	d, err := sops.NewDistributed(opts)
	if err != nil {
		return err
	}
	probe := sops.NewProbe()
	d.SetProbe(probe)
	if listen != "" {
		srv := telemetry.NewServer(telemetry.Sources{
			Probe: probe,
			Info: map[string]any{
				"workload": "distributed amoebot runtime",
				"workers":  workers, "lambda": opts.Lambda, "gamma": opts.Gamma,
				"activations": iters, "seed": opts.Seed,
			},
		})
		addr, err := srv.Start(listen)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("debug server on http://%s/debug/sops (also /debug/vars, /debug/pprof/)\n", addr)
	}
	injecting := faults.CrashProb > 0 || faults.DropFrac > 0 || faults.StallProb > 0
	if injecting {
		if err := d.EnableFaults(faults); err != nil {
			return err
		}
		fmt.Printf("fault injection armed: seed=%d crashProb=%g dropFrac=%g stallProb=%g\n",
			faults.Seed, faults.CrashProb, faults.DropFrac, faults.StallProb)
	}
	d.SetAuditEvery(auditEvery)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	model := opts.Model
	if model == "" {
		model = "separation"
	}
	fmt.Printf("distributed runtime: model %s, %d workers, %d activations\n", model, workers, iters)
	performed, moves, swaps, err := d.RunContext(ctx, iters, workers)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			return err // an invariant audit failed: the run is not trustworthy
		}
		fmt.Printf("interrupted after %d activations (%v)\n", performed, err)
	}
	if injecting {
		st := d.FaultStats()
		fmt.Printf("faults: %d crashes, %d restarts, %d dropped slots, %d stalls\n",
			st.Crashes, st.Restarts, st.Dropped, st.Stalls)
	}
	m := d.Metrics()
	fmt.Printf("accepted %d moves, %d swaps; α=%.3f h=%d segregation=%.3f phase=%s energy=%.3f\n",
		moves, swaps, m.Alpha, m.HetEdges, m.Segregation, m.Phase, d.Energy())
	if err := d.CheckInvariants(); err != nil {
		return fmt.Errorf("final invariant audit: %w", err)
	}
	snap := d.Snapshot()
	fmt.Printf("connected=%v holeFree=%v (invariants verified)\n", snap.Connected(), snap.HoleFree())
	if ascii {
		fmt.Println(d.ASCII())
	}
	return nil
}
