// Command perfbench is the repository benchmark. One invocation runs one
// named workload through the library's public entry points for a fixed
// time, checks that every output is correct, and prints its metrics: a
// human-readable report on lines starting with '#', then one JSON object
// as the last line of standard output.
//
//	go run . --workload fig2 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics a user of the library
// or the daemon sees; with --trace 1 it times the calls into each layer
// from this package's own files (spans kept in memory, written out at
// exit) and reports the per-layer metrics. The workloads, the metric
// definitions and what each layer metric should move are in NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names a reported metric and its unit. The two lists below
// are the contract with BENCHMARK.json at the repository root.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"proposals_per_s", "1/s"},
	{"accepted_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
	{"cells_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"core.step_ns", "ns"},
	{"core.step_other_ns", "ns"},
	{"core.acceptance", "ratio"},
	{"core.swap_frac", "ratio"},
	{"core.sharded.step_ns", "ns"},
	{"core.sharded.setup_ms", "ms"},
	{"core.sharded.fold_ms", "ms"},
	{"psys.gather_ns", "ns"},
	{"psys.validity_ns", "ns"},
	{"psys.exponents_ns", "ns"},
	{"psys.apply_ns", "ns"},
	{"psys.tile_gather_ns", "ns"},
	{"psys.window_cells", "count"},
	{"metrics.capture_ms", "ms"},
	{"metrics.capture_store_ms", "ms"},
	{"telemetry.offer_ns", "ns"},
	{"telemetry.flush_ms", "ms"},
	{"telemetry.trace_bytes", "B"},
	{"snapbin.encode_ms", "ms"},
	{"snapbin.checkpoint_bytes", "B"},
	{"seal.write_ms", "ms"},
	{"sops.restore_ms", "ms"},
	{"runner.cell_s", "s"},
	{"jobs.submit_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms.run", "ms"},
	{"jobs.run_ms.sweep", "ms"},
	{"jobs.follow_lag_ms", "ms"},
	{"trace.wall_s", "s"},
	{"trace.jobs_per_s", "1/s"},
	{"trace.overhead_frac", "ratio"},
}

// workDir holds scratch files and span dumps, relative to the directory
// the benchmark runs from (the repository root).
var workDir = filepath.Join(".bench_build", "perfbench")

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*env) error{
	"fig2":          runFig2,
	"large-serial":  func(e *env) error { return runLarge(e, 1) },
	"large-sharded": func(e *env) error { return runLarge(e, e.nproc) },
	"sopsd":         runSopsd,
}

// env is one benchmark run: its inputs, its scratch directory, and what it
// has measured and checked so far.
type env struct {
	workload string
	seed     uint64
	dur      time.Duration
	dir      string  // scratch directory, removed at exit
	nproc    int     // worker and client count
	tr       *tracer // nil unless --trace 1

	mu        sync.Mutex
	values    map[string]float64
	notes     []string
	findings  map[string]int // known issues observed, by kind
	attempted int
	failed    int
}

// check counts one checked operation, recording a failure with its reason.
func (e *env) check(ok bool, format string, args ...any) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if !ok {
		e.failed++
		msg := fmt.Sprintf(format, args...)
		if e.failed <= 20 {
			e.notes = append(e.notes, "FAIL "+msg)
		}
	}
	return ok
}

// known counts an observation reported as a finding rather than a failed
// check, keeping the first example of each kind for the report.
func (e *env) known(kind, format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.findings == nil {
		e.findings = make(map[string]int)
	}
	if e.findings[kind] == 0 && format != "" {
		e.notes = append(e.notes, "finding: "+fmt.Sprintf(format, args...))
	}
	e.findings[kind]++
}

// set records a metric value.
func (e *env) set(name string, v float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.values[name] = v
}

// note adds a line to the human-readable report.
func (e *env) note(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: fig2, large-serial, large-sharded or sopsd")
	seed := flag.Uint64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Int("seconds", 20, "length of the measured phase, in seconds")
	traced := flag.Int("trace", 0, "1 times each layer and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds >= 1, --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fatal(err)
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds) * time.Second,
		dir:      dir,
		nproc:    runtime.GOMAXPROCS(0),
		values:   make(map[string]float64),
	}
	defs := endToEnd
	if *traced == 1 {
		e.tr = newTracer()
		defs = perLayer
	}
	fmt.Println("#", stamp(e))

	// Flush the file systems first, so set-up and the measured phase do not
	// pay for the writes and deletions an earlier run left to the kernel.
	syscall.Sync()
	runErr := run(e)
	os.RemoveAll(dir)
	if runErr != nil {
		fatal(runErr)
	}
	if e.tr != nil {
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", e.workload, e.seed))
		if err := e.tr.writeSpans(path); err != nil {
			fatal(err)
		}
		fmt.Println("# spans written to", path)
		e.tr.printSelfTimes(os.Stdout)
	}
	for _, n := range e.notes {
		fmt.Println("#", n)
	}
	kinds := make([]string, 0, len(e.findings))
	for k := range e.findings {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("# finding: %s: %d\n", k, e.findings[k])
	}

	out := resultOut{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: make(map[string]metricOut)}
	var missing []string
	for _, d := range defs {
		v, ok := e.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("# %-26s %16.6g %s\n", d.name, v, d.unit)
	}
	if len(missing) > 0 {
		fatal(fmt.Errorf("workload %s produced no value for %s", e.workload, strings.Join(missing, ", ")))
	}
	if out.Attempted < 1 {
		fatal(fmt.Errorf("workload %s checked nothing", e.workload))
	}
	fmt.Printf("# %-26s %16.6g (failed %d of %d checked operations)\n", "error_rate", float64(e.failed)/float64(e.attempted), e.failed, e.attempted)
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// stamp describes the run and the machine it ran on, so a result set can
// be compared only with its like.
func stamp(e *env) string {
	trace := 0
	if e.tr != nil {
		trace = 1
	}
	return fmt.Sprintf("perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s",
		e.workload, e.seed, int(e.dur/time.Second), trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), cpuModel(), commit())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit returns the VCS revision the binary was built from, or "unknown"
// when it was built outside a repository checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse peak RSS %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM line")
}

// mix derives a seed from the workload seed and a path of indices, so
// every input of a run is a pure function of --seed.
func mix(vals ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, v := range vals {
		h = splitmix(h ^ v)
	}
	return h
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Set-up sampling. A sample times back-to-back builds until they add up to
// setupSampleTime and records their mean. setupSamples samples are taken
// before the measured phase and as many after it; a workload whose
// clients leave the machine idle between units also takes one every
// setupEvery during the phase, between units. setup_s is the median
// sample, so it spans the run the throughput figures span, and a slow
// episode of the machine that covers less than half the samples does not
// move it.
const (
	setupSampleTime = 20 * time.Millisecond
	setupSamples    = 20
	setupEvery      = time.Second
)

// setupTimer measures a workload's set-up. build makes one instance of
// what the workload builds before its measured phase and returns a
// function, called untimed, that releases it.
type setupTimer struct {
	build   func() (release func(), err error)
	during  bool // sample between units during the phase
	samples []float64
	last    time.Time
}

func newSetupTimer(during bool, build func() (func(), error)) (*setupTimer, error) {
	s := &setupTimer{build: build, during: during}
	// One untimed sample first: the process's first builds also pay for
	// growing its heap and faulting in its code.
	if err := s.sample(); err != nil {
		return nil, err
	}
	s.samples = s.samples[:0]
	return s, s.samplen(setupSamples)
}

func (s *setupTimer) samplen(n int) error {
	for i := 0; i < n; i++ {
		if err := s.sample(); err != nil {
			return err
		}
	}
	return nil
}

// sample takes one set-up sample, from a freshly collected heap so that a
// collection the workload's garbage left due does not land in it.
func (s *setupTimer) sample() error {
	runtime.GC()
	var sum time.Duration
	builds := 0
	for sum < setupSampleTime {
		t0 := time.Now()
		release, err := s.build()
		sum += time.Since(t0)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		builds++
		if release != nil {
			release()
		}
	}
	s.samples = append(s.samples, sum.Seconds()/float64(builds))
	s.last = time.Now()
	return nil
}

// due takes a sample if the timer samples during the phase and setupEvery
// has passed since the last one.
func (s *setupTimer) due() error {
	if !s.during || time.Since(s.last) < setupEvery {
		return nil
	}
	return s.sample()
}

// resetPeakRSS sets the process's peak resident set (VmHWM) back to its
// current RSS (Linux 4.0+); where that is unavailable the peak keeps
// accumulating.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// hardStop bounds a measured phase whatever its minimum unit count asks
// for, keeping a run well inside its time limit.
const hardStop = 120 * time.Second

// rssWindows is how many windows peak_rss_mb cuts a phase into.
const rssWindows = 5

// runClients runs iter on clients goroutines, each starting its next
// iteration only when the previous one has finished (a closed loop), until
// the phase has lasted --seconds and at least minIters iterations are done
// — longer only when the machine is too slow to reach them. Each client
// finishes the iteration in flight; the phase ends when the last one has,
// and runClients returns its start. Client 0 takes the set-up samples that
// fall due between its iterations, and runClients the last ones after the
// phase. It reports setup_s, and peak_rss_mb: the phase is cut into
// windows of --seconds/rssWindows, the process's peak resident set is read
// and reset at the end of each, and the median window's peak is reported.
// Whatever recurs within a window — a fold, a window regrowing, a large
// collection — is in every window's peak; a one-off spike of the kind the
// maximum over a whole phase would pick up only some runs is not.
func (e *env) runClients(clients, minIters int, setup *setupTimer, iter func(client, index int) error) (time.Time, error) {
	dur := e.dur
	debug.FreeOSMemory()
	resetPeakRSS()
	window := dur / rssWindows
	var peaks []float64
	var rssErr error
	lastRead := time.Now()
	readPeak := func(final bool) {
		mb, err := peakRSSMB()
		if err != nil {
			rssErr = err
			return
		}
		resetPeakRSS()
		if final && len(peaks) > 0 && time.Since(lastRead) < window/2 {
			// A short tail joins the window before it.
			peaks[len(peaks)-1] = max(peaks[len(peaks)-1], mb)
		} else {
			peaks = append(peaks, mb)
		}
		lastRead = time.Now()
	}
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(window)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				readPeak(false)
			}
		}
	}()
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	done := 0
	more := func() bool {
		mu.Lock()
		defer mu.Unlock()
		el := time.Since(start)
		return firstErr == nil && el < hardStop && (el < dur || done < minIters)
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; more(); i++ {
				err := iter(c, i)
				if err == nil && c == 0 {
					err = setup.due()
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				done++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	readPeak(true)
	if rssErr != nil {
		return start, rssErr
	}
	e.set("peak_rss_mb", median(peaks))
	e.note("peak RSS by window of %s: %.1f MB (phase maximum %.1f MB)", window, peaks, slices.Max(peaks))
	// Flush what the phase wrote, as before the set-up, so the last set-up
	// samples do not wait on its writeback.
	syscall.Sync()
	if err := setup.samplen(setupSamples); err != nil {
		return start, err
	}
	e.set("setup_s", median(setup.samples))
	n := len(setup.samples)
	during := "-"
	if n > 2*setupSamples {
		during = fmt.Sprintf("%.4g s", median(setup.samples[setupSamples:n-setupSamples]))
	}
	e.note("set-up samples: %d; median before the phase %.4g s, during %s, after %.4g s", n,
		median(setup.samples[:setupSamples]), during, median(setup.samples[n-setupSamples:]))
	return start, firstErr
}

// unit is one completed unit of work — a trajectory, a sample interval, a
// daemon job — with what it delivered.
type unit struct {
	end       time.Time
	latency   time.Duration
	proposals float64
	accepted  float64
	cells     float64
}

// blockSize is the fewest units a block holds: enough that p90 has ten
// samples beyond it.
const blockSize = 100

// setEndToEnd reports the throughput and latency metrics of a measured
// phase that began at start. The units are cut, in completion order, into
// consecutive blocks of at least blockSize; each metric is computed per
// block — work over the block's wall time, percentiles over its units —
// and the median block is reported, so a slow stretch of the machine
// that covers less than half the blocks does not move the figures.
func (e *env) setEndToEnd(start time.Time, units []unit) error {
	sort.Slice(units, func(i, j int) bool { return units[i].end.Before(units[j].end) })
	nb := len(units) / blockSize
	if nb == 0 {
		return fmt.Errorf("only %d units completed; p90 needs %d", len(units), blockSize)
	}
	var props, acc, jobs, cells, p50s, p90s, lat []float64
	prev := start
	for b := 0; b < nb; b++ {
		blk := units[b*len(units)/nb : (b+1)*len(units)/nb]
		wall := blk[len(blk)-1].end.Sub(prev).Seconds()
		prev = blk[len(blk)-1].end
		var p, a, c float64
		l := make([]float64, len(blk))
		for i, u := range blk {
			p += u.proposals
			a += u.accepted
			c += u.cells
			l[i] = u.latency.Seconds()
		}
		lat = append(lat, l...)
		p50, _ := percentile(l, 50)
		p90, _ := percentile(l, 90)
		props = append(props, p/wall)
		acc = append(acc, a/wall)
		jobs = append(jobs, float64(len(blk))/wall)
		cells = append(cells, c/wall)
		p50s = append(p50s, p50)
		p90s = append(p90s, p90)
	}
	e.set("proposals_per_s", median(props))
	e.set("accepted_per_s", median(acc))
	e.set("jobs_per_s", median(jobs))
	e.set("cells_per_s", median(cells))
	e.set("job_p50_s", median(p50s))
	e.set("job_p90_s", median(p90s))
	q1, q2, q3, _ := quartiles(lat)
	e.note("units measured: %d in %d blocks; latency quartiles %.4g / %.4g / %.4g s", len(units), nb, q1, q2, q3)
	return nil
}
