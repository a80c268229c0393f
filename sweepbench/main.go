// Command sweepbench is slowcc's end-to-end benchmark. It times the
// program's real sweep entry points — exp.Fig45, and exp.Matrix resumed
// over a durable result store — with tracing off, and
// in a separate traced run attributes the time to the repository's
// layers (exp, sim, netem, topology, cc, metrics, store) by replaying
// the sweep's cells from this package through the layers' public calls.
//
// Run it from the repository root:
//
//	bash sweepbench/run.sh --workload matrix-resume --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
// metrics. A workload seed selects the simulation seeds the run sweeps
// (see runSeeds), and every sweep's output is checked against the pins
// in pins.json. After a code change that deliberately changes outputs,
// rebuild with run.sh and regenerate the pins with
//
//	.bench_build/sweepbench -pin > sweepbench/pins.json
//
// `.bench_build/sweepbench compare A B` compares two result files
// written with -out, refusing sets taken with another GOMAXPROCS or seeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workers is the closed-batch worker count: the sweep runs on
// GOMAXPROCS workers, pinned so result sets from machines with more
// cores stay comparable.
const workers = 2

// A run sets the workload up at least minSetups times and until its
// set-ups have taken setupSeconds; setup_s is the median. Fig45's
// set-up takes about 0.1 s, so a median of three still carries the
// first set-up's lazy initialisation and a noisy third of a second;
// matrix-resume's takes about 3 s and stops at three.
const (
	minSetups    = 3
	setupSeconds = 3.0
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch directory for stores
	tiny     bool   // shrunken cells, no pins (tests)
	out      string // append the full result record here
	commit   string // stamped into results
	dirty    bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "sweepbench compare:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var traceN int
	var pin bool
	flag.StringVar(&o.workload, "workload", "", "workload: fig45 or matrix-resume")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 45, "measure for this many seconds")
	flag.IntVar(&traceN, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build", "scratch directory")
	flag.StringVar(&o.out, "out", "", "also append the full result record (with its stamp) to this file")
	flag.StringVar(&o.commit, "commit", "unknown", "commit the benchmarked tree was built from (stamped into results)")
	flag.BoolVar(&o.dirty, "dirty", false, "the tree had uncommitted changes (stamped into results)")
	flag.BoolVar(&pin, "pin", false, "recompute pins.json for every pinned workload seed and print it")
	flag.Parse()
	o.trace = traceN == 1
	runtime.GOMAXPROCS(min(workers, runtime.NumCPU()))
	if pin {
		if err := pinMain(o.dir, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "sweepbench:", err)
			os.Exit(1)
		}
		return
	}
	if traceN != 0 && traceN != 1 {
		fmt.Fprintln(os.Stderr, "sweepbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies where and how a result was taken. Result sets with a
// different GOMAXPROCS or seed are not comparable (see compare).
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	SimSeeds   []int64 `json:"sim_seeds"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
}

func newStamp(o options, simSeeds []int64) stamp {
	return stamp{Workload: o.workload, Seed: o.seed, SimSeeds: simSeeds, Trace: o.trace,
		Seconds: o.seconds, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: o.commit, Dirty: o.dirty}
}

// run performs one benchmark invocation and prints its report to w.
func run(o options, w io.Writer) error {
	wl, err := lookupWorkload(o.workload, o.tiny)
	if err != nil {
		return err
	}
	// Tiny runs have no pins: each seed's pin is learnt from a traced
	// sweep, and the timed sweeps must reproduce it.
	seeds := make([]int64, wl.seedsPerRun())
	for i := range seeds {
		seeds[i] = o.seed + int64(i)
	}
	pins := map[int64]*pinned{}
	if !o.tiny {
		pf, err := loadPins()
		if err != nil {
			return err
		}
		seeds = runSeeds(wl, o.seed)
		if pins, err = pinsFor(pf, wl, seeds); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)

	st := newStamp(o, seeds)
	sb, _ := json.Marshal(st)
	fmt.Fprintf(w, "# stamp %s\n", sb)

	var res *result
	if o.trace {
		res, err = runTraced(wl, seeds[0], pins[seeds[0]], dir, w)
	} else {
		res, err = runTimed(wl, seeds, pins, o.seconds, dir, w)
	}
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := appendRecord(o.out, st, res); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// checker verifies each sweep's output against its seed's pin and counts
// failures.
type checker struct {
	wl        workload
	attempted int
	failed    int
	w         io.Writer
}

// check adds one sweep to the tallies. A degraded or breaker-skipped cell
// fails alone; a wrong output digest, event count or store hit count
// fails every cell of the sweep. The event count is checked wherever the
// sweep measured it: on every matrix-resume sweep and on every traced
// sweep (fig45's timed sweeps run without telemetry and cannot count).
func (c *checker) check(r *sweepResult, pin *pinned) {
	c.attempted += r.cells
	bad := r.failed
	if got := r.sha(); got != pin.SHA256 {
		fmt.Fprintf(c.w, "# FAIL output sha256 %s, pinned %s\n", got, pin.SHA256)
		bad = r.cells
	}
	if r.eventsMeasured && r.events != pin.Events {
		fmt.Fprintf(c.w, "# FAIL %d events executed, pinned %d\n", r.events, pin.Events)
		bad = r.cells
	}
	if want := c.wl.expectedHits(); r.hits != want {
		fmt.Fprintf(c.w, "# FAIL store hits %d, want %d\n", r.hits, want)
		bad = r.cells
	}
	if r.failed > 0 {
		fmt.Fprintf(c.w, "# FAIL %d cells degraded or skipped\n", r.failed)
	}
	c.failed += min(bad, r.cells)
}

// runTimed is the --trace 0 run. It sets the workload up repeatedly,
// sweeps every seed once, then keeps sweeping the seeds in turn for
// about seconds, starting a sweep only while it is expected to end
// within them. Each sweep metric is the median over a seed's sweeps,
// averaged over the seeds.
func runTimed(wl workload, seeds []int64, pins map[int64]*pinned, seconds float64, dir string, w io.Writer) (*result, error) {
	var setups []float64
	var setupSum float64
	var p prepared
	for len(setups) < minSetups || setupSum < setupSeconds {
		t0 := time.Now()
		var err error
		if p, err = wl.setup(seeds, dir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupSum += setups[len(setups)-1]
	}
	if err := discoverPins(wl, p, seeds, pins, dir); err != nil {
		return nil, err
	}
	chk := &checker{wl: wl, w: w}
	per := make([][]sample, len(seeds))
	var spent float64
	for i := 0; i < len(seeds) || spent+spent/float64(i) <= seconds; i++ {
		k, seed := i%len(seeds), seeds[i%len(seeds)]
		if err := wl.prepareSweep(p, seed, dir); err != nil {
			return nil, err
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r, err := wl.sweep(p, seed, dir)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		chk.check(r, pins[seed])
		spent += r.seconds
		s := sample{
			sweepS:   r.seconds,
			cellsPS:  float64(r.cells-r.failed) / r.seconds,
			eventsPS: float64(pins[seed].Events) / r.seconds,
			allocMB:  float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		}
		per[k] = append(per[k], s)
		fmt.Fprintf(w, "# sweep seed %d: %.4f s, %d cells, %d failed, %.1f MB allocated\n",
			seed, r.seconds, r.cells, r.failed, s.allocMB)
	}
	fmt.Fprintf(w, "# setup runs %v s\n", setups)
	// meanOfMedians is the median over each seed's sweeps, averaged over
	// the seeds.
	meanOfMedians := func(get func(sample) float64) float64 {
		var sum float64
		for _, ss := range per {
			xs := make([]float64, len(ss))
			for i, s := range ss {
				xs[i] = get(s)
			}
			sum += median(xs)
		}
		return sum / float64(len(per))
	}
	m := map[string]metric{
		"sweep_s":          {meanOfMedians(func(s sample) float64 { return s.sweepS }), "s"},
		"cells_per_s":      {meanOfMedians(func(s sample) float64 { return s.cellsPS }), "1/s"},
		"sim_events_per_s": {meanOfMedians(func(s sample) float64 { return s.eventsPS }), "1/s"},
		"alloc_mb":         {meanOfMedians(func(s sample) float64 { return s.allocMB }), "MB"},
		"setup_s":          {median(setups), "s"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}
	return &result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m}, nil
}

// sample is one timed sweep's measurements.
type sample struct {
	sweepS, cellsPS, eventsPS, allocMB float64
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// appendRecord appends one stamped result as a JSON line.
func appendRecord(path string, st stamp, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(record{Stamp: st, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
