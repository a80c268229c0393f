// Command slowccbench records the simulator-core performance
// trajectory. It runs the core micro- and macro-benchmarks
// (engine event turnover, per-packet link forwarding, single-flow TCP
// and TFRC steady state, and the two-flow BenchmarkEnginePacketsPerSecond
// macro-benchmark), compares them against the recorded pre-optimization
// baseline, and writes the whole record to a JSON file (default
// BENCH_core.json). It exits non-zero if the optimization gates — the
// minimum speedup and allocation drop on the macro-benchmark — are not
// met, so `make bench-json` doubles as a performance regression check.
//
// It also enforces the layer-overhead gate. The macro-benchmark runs one
// sub-benchmark per row of the root package's layer table: plain, then
// each layer wired but off (EnginePacketsPerSecond/obs-off,
// /faults-off, ...). Every other row may be at most 2% slower than
// plain measured in the same invocation (a paired comparison, so machine
// drift between commits cannot fake a pass or a fail), may not allocate
// a single op more than the pr2 allocation-free record, must execute
// the identical event count, and must appear in every one of the -count
// runs. The gate loops over whatever rows the run reports, so a new
// layer is gated by adding its row to the table.
//
// Because the record names the commit it measured, slowccbench refuses
// to run from a dirty worktree: a measurement of uncommitted code
// attributed to HEAD would poison the trajectory. -allow-dirty
// overrides for local experiments (the commit is then marked -dirty).
//
// Each benchmark's ns/op min and max across the -count runs are
// recorded as the spread; a spread above 5% is flagged unstable in the
// report and on stderr, so a noisy measurement is visible instead of
// silently laundered through the minimum.
//
// Usage:
//
//	slowccbench [-out BENCH_core.json] [-count 3] [-benchtime 1x] [-allow-dirty]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// baseline is the pre-optimization measurement, recorded at commit
// 3e83804 (container/heap event queue, closure-per-event scheduling,
// heap-allocated packets) with the same settings slowccbench uses:
// -benchtime=1x -benchmem -count=3, minimum of the three runs, seed 1,
// on go1.24 / Intel Xeon 2.10GHz. The `events` metric is identical
// before and after by construction — the optimization is not allowed to
// change simulated behavior — so ns/op and allocs/op are the trajectory.
var baseline = record{
	Commit: "3e83804",
	Note: "pre-optimization: container/heap queue, per-event closures, heap-allocated packets; " +
		"min of 3 runs at -benchtime=1x, seed 1",
	Benchmarks: map[string]map[string]float64{
		macro: {
			"ns/op":     181267997,
			"events":    403989,
			"B/op":      39237504,
			"allocs/op": 938318,
		},
	},
}

// pr2 is the allocation-free-core measurement recorded when the
// optimization PR landed (commit e3ff66b), the reference the layer
// gate's allocation check compares against: wiring a layer (disabled)
// must not add a single alloc/op to the macro-benchmark. Its ns/op is
// machine- and load-dependent, so the layer *time* gate deliberately
// does not use it — the ≤2% check compares each layer row against the
// plain row measured in the same slowccbench invocation instead. Both
// records predate the macro-benchmark's rows; their single
// measurement is what the plain row measures.
var pr2 = record{
	Commit: "e3ff66b",
	Note: "allocation-free core: pooled timers/packets, pre-bound callbacks; " +
		"min of 3 runs at -benchtime=1x, seed 1",
	Benchmarks: map[string]map[string]float64{
		macro: {
			"ns/op":     38832407,
			"events":    403989,
			"B/op":      76176,
			"allocs/op": 438,
		},
	},
}

type record struct {
	Commit     string                        `json:"commit"`
	Note       string                        `json:"note,omitempty"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// spread is the ns/op range one benchmark covered across the -count
// runs of a single invocation. Rel is (max-min)/min; above
// unstableSpread the measurement is flagged so a noisy machine cannot
// silently launder variance through the recorded minimum.
type spread struct {
	MinNs    float64 `json:"min_ns_op"`
	MaxNs    float64 `json:"max_ns_op"`
	Rel      float64 `json:"rel_spread"`
	Unstable bool    `json:"unstable"`
}

const unstableSpread = 0.05

type report struct {
	Schema     string            `json:"schema"`
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"num_cpu"`
	Settings   string            `json:"settings"`
	Baseline   record            `json:"baseline"`
	PR2        record            `json:"pr2_core"`
	Current    record            `json:"current"`
	Spread     map[string]spread `json:"ns_spread"`
	Unstable   []string          `json:"unstable,omitempty"`
	Gates      gates             `json:"gates"`
	Trajectory outcome           `json:"trajectory"`
	Layers     []layerOutcome    `json:"layer_overhead"`
}

type gates struct {
	MinSpeedup    float64 `json:"min_speedup"`
	MinAllocsDrop float64 `json:"min_allocs_drop"`
	// MaxLayerSlowdown caps a layer row's time against the plain row
	// measured in the same run (1.02 = 2%).
	MaxLayerSlowdown float64 `json:"max_layer_slowdown"`
	// MaxLayerExtraAllocs caps allocs/op added over the pr2 record (0).
	MaxLayerExtraAllocs float64 `json:"max_layer_extra_allocs"`
}

type outcome struct {
	Benchmark  string  `json:"benchmark"`
	Speedup    float64 `json:"speedup"`
	AllocsDrop float64 `json:"allocs_drop"`
	EventsSame bool    `json:"events_identical"`
	Pass       bool    `json:"pass"`
}

// layerOutcome is a paired-overhead gate: a layer row of the
// macro-benchmark against the plain row from the same invocation (time,
// immune to machine drift between commits) and against the pr2
// allocation record (allocs, deterministic).
type layerOutcome struct {
	Benchmark   string  `json:"benchmark"`
	Slowdown    float64 `json:"slowdown_vs_plain"`
	ExtraAllocs float64 `json:"extra_allocs_vs_pr2"`
	EventsSame  bool    `json:"events_identical"`
	Runs        int     `json:"runs"`
	Pass        bool    `json:"pass"`
}

// macro names the macro-benchmark; its rows are sub-benchmarks, and
// plain is the row the baseline records and every layer row pair with.
const (
	macro      = "EnginePacketsPerSecond"
	macroPlain = macro + "/plain"
)

// suites lists the benchmarks per package. Each layer of the core has
// its own entry so a regression names its layer.
var suites = []struct{ pkg, pattern string }{
	// Every macro row runs in one invocation, so the overhead
	// comparisons are paired: same machine, same load.
	{".", macro + "$|TCPFlowSimSecond|TFRCFlowSimSecond"},
	{"./internal/sim", "EngineEventTurnover"},
	{"./internal/netem", "LinkForward"},
}

// benchLine matches one `go test -bench` result row, e.g.
// "BenchmarkLinkForward-8   1000   1042 ns/op   0 B/op   0 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.+)$`)

func main() {
	var (
		out        = flag.String("out", "BENCH_core.json", "output JSON file")
		count      = flag.Int("count", 3, "runs per benchmark (minimum is recorded; min/max spread is reported)")
		benchtime  = flag.String("benchtime", "1x", "go test -benchtime value")
		allowDirty = flag.Bool("allow-dirty", false, "measure a dirty worktree anyway (commit is marked -dirty)")
	)
	flag.Parse()

	head, dirty := gitHead()
	if err := guardDirty(dirty, *allowDirty); err != nil {
		fmt.Fprintf(os.Stderr, "slowccbench: %v\n", err)
		os.Exit(1)
	}
	if dirty {
		head += "-dirty"
	}

	cur := record{Commit: head, Benchmarks: map[string]map[string]float64{}}
	nsRuns := map[string][]float64{}
	for _, s := range suites {
		fmt.Fprintf(os.Stderr, "bench %s (%s)\n", s.pkg, s.pattern)
		if err := runSuite(s.pkg, s.pattern, *benchtime, *count, cur.Benchmarks, nsRuns); err != nil {
			fmt.Fprintf(os.Stderr, "slowccbench: %v\n", err)
			os.Exit(1)
		}
	}
	spreads, unstable := spreadOf(nsRuns)

	g := gates{
		MinSpeedup: 4.0, MinAllocsDrop: 0.60,
		MaxLayerSlowdown: 1.02, MaxLayerExtraAllocs: 0,
	}
	rep := report{
		Schema:     "slowcc-bench-core/4",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Settings:   fmt.Sprintf("-benchtime=%s -benchmem -count=%d (min recorded, min/max spread reported), seed 1", *benchtime, *count),
		Baseline:   baseline,
		PR2:        pr2,
		Current:    cur,
		Spread:     spreads,
		Unstable:   unstable,
		Gates:      g,
		Trajectory: trajectory(baseline.Benchmarks[macro], cur.Benchmarks[macroPlain], g),
		Layers:     layerGates(cur.Benchmarks, nsRuns, *count, pr2.Benchmarks[macro], g),
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "slowccbench: %v\n", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "slowccbench: %v\n", err)
		os.Exit(1)
	}
	t := rep.Trajectory
	fmt.Printf("%s: speedup %.2fx (gate %.1fx), allocs drop %.2f%% (gate %.0f%%), events identical: %v -> %s\n",
		t.Benchmark, t.Speedup, g.MinSpeedup, t.AllocsDrop*100, g.MinAllocsDrop*100, t.EventsSame, *out)
	for _, o := range rep.Layers {
		fmt.Printf("%s: slowdown %.3fx vs plain, extra allocs %+.0f vs pr2, events identical: %v, in %d/%d runs\n",
			o.Benchmark, o.Slowdown, o.ExtraAllocs, o.EventsSame, o.Runs, *count)
	}
	for _, name := range unstable {
		s := spreads[name]
		fmt.Fprintf(os.Stderr, "slowccbench: warning: %s ns/op spread %.1f%% across %d runs (>%.0f%%: unstable; recorded minimum %v)\n",
			name, s.Rel*100, *count, unstableSpread*100, s.MinNs)
	}
	if !t.Pass {
		fmt.Fprintln(os.Stderr, "slowccbench: optimization gates NOT met")
		os.Exit(1)
	}
	for _, o := range rep.Layers {
		if !o.Pass {
			fmt.Fprintf(os.Stderr, "slowccbench: %s overhead gates NOT met\n", o.Benchmark)
			os.Exit(1)
		}
	}
}

// guardDirty is the worktree guard: a dirty tree may not update the
// record (its commit attribution would be a lie) unless the override is
// explicit.
func guardDirty(dirty, allowDirty bool) error {
	if dirty && !allowDirty {
		return fmt.Errorf("worktree is dirty; refusing to update the record from uncommitted code (commit first, or pass -allow-dirty to measure anyway)")
	}
	return nil
}

// spreadOf reduces per-run ns/op samples into min/max spreads and
// returns the (sorted) names whose relative spread exceeds the
// stability threshold.
func spreadOf(nsRuns map[string][]float64) (map[string]spread, []string) {
	spreads := map[string]spread{}
	var unstable []string
	for name, runs := range nsRuns {
		if len(runs) == 0 {
			continue
		}
		s := spread{MinNs: runs[0], MaxNs: runs[0]}
		for _, v := range runs[1:] {
			if v < s.MinNs {
				s.MinNs = v
			}
			if v > s.MaxNs {
				s.MaxNs = v
			}
		}
		if s.MinNs > 0 {
			s.Rel = (s.MaxNs - s.MinNs) / s.MinNs
		}
		s.Unstable = s.Rel > unstableSpread
		spreads[name] = s
		if s.Unstable {
			unstable = append(unstable, name)
		}
	}
	sort.Strings(unstable)
	return spreads, unstable
}

func trajectory(base, cur map[string]float64, g gates) outcome {
	o := outcome{Benchmark: macroPlain}
	if base == nil || cur == nil || cur["ns/op"] == 0 || base["allocs/op"] == 0 {
		return o
	}
	o.Speedup = base["ns/op"] / cur["ns/op"]
	o.AllocsDrop = 1 - cur["allocs/op"]/base["allocs/op"]
	o.EventsSame = base["events"] == cur["events"]
	o.Pass = o.Speedup >= g.MinSpeedup && o.AllocsDrop >= g.MinAllocsDrop && o.EventsSame
	return o
}

// layerGates pairs every layer row of the macro-benchmark in cur with
// the plain row from the same invocation and with the pr2 allocation
// record. Every row must execute the same event count — no layer is
// allowed to change simulated behavior — and that count must still
// equal the pr2 record's. A row (plain included) that is absent from
// any of the count runs fails rather than being judged on the runs it
// survived, and a run with no layer rows at all fails outright.
func layerGates(cur map[string]map[string]float64, nsRuns map[string][]float64, count int, pr2core map[string]float64, g gates) []layerOutcome {
	var rows []string
	for name := range cur {
		if strings.HasPrefix(name, macro+"/") && name != macroPlain {
			rows = append(rows, name)
		}
	}
	if len(rows) == 0 {
		return []layerOutcome{{Benchmark: macro + "/*"}}
	}
	sort.Strings(rows)
	plain := cur[macroPlain]
	var out []layerOutcome
	for _, name := range rows {
		o := layerOutcome{Benchmark: name, Runs: min(len(nsRuns[name]), len(nsRuns[macroPlain]))}
		variant := cur[name]
		if plain != nil && plain["ns/op"] != 0 && pr2core != nil {
			o.Slowdown = variant["ns/op"] / plain["ns/op"]
			o.ExtraAllocs = variant["allocs/op"] - pr2core["allocs/op"]
			o.EventsSame = variant["events"] == plain["events"] && variant["events"] == pr2core["events"]
			o.Pass = o.Slowdown <= g.MaxLayerSlowdown && o.ExtraAllocs <= g.MaxLayerExtraAllocs &&
				o.EventsSame && o.Runs == count
		}
		out = append(out, o)
	}
	return out
}

// runSuite executes one `go test -bench` invocation and folds its rows
// into dst, keeping per-metric minima across -count runs (except
// throughput metrics, where the maximum is the stable figure, and event
// counts, which must not vary at all). Every per-run ns/op sample is
// appended to nsRuns for spread reporting.
func runSuite(pkg, pattern, benchtime string, count int, dst map[string]map[string]float64, nsRuns map[string][]float64) error {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", pattern, "-benchtime", benchtime, "-benchmem",
		"-count", strconv.Itoa(count), pkg)
	outBytes, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s: %v\n%s", pkg, err, outBytes)
	}
	found := false
	for _, line := range strings.Split(string(outBytes), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		metrics := parseMetrics(m[2])
		if len(metrics) == 0 {
			continue
		}
		found = true
		if ns, ok := metrics["ns/op"]; ok {
			nsRuns[name] = append(nsRuns[name], ns)
		}
		fold(dst, name, metrics)
	}
	if !found {
		return fmt.Errorf("%s: no benchmark rows matched %q in output:\n%s", pkg, pattern, outBytes)
	}
	return nil
}

// parseMetrics reads the "value unit value unit ..." tail of a bench row.
func parseMetrics(tail string) map[string]float64 {
	fields := strings.Fields(tail)
	out := map[string]float64{}
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		out[fields[i+1]] = v
	}
	return out
}

func fold(dst map[string]map[string]float64, name string, metrics map[string]float64) {
	cur, ok := dst[name]
	if !ok {
		dst[name] = metrics
		return
	}
	for k, v := range metrics {
		prev, seen := cur[k]
		switch {
		case !seen:
			cur[k] = v
		case strings.HasSuffix(k, "/s"): // throughput: keep the best run
			if v > prev {
				cur[k] = v
			}
		default: // costs and counts: keep the minimum
			if v < prev {
				cur[k] = v
			}
		}
	}
}

// gitHead returns the short HEAD hash and whether the worktree has
// uncommitted changes.
func gitHead() (head string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	head = strings.TrimSpace(string(out))
	st, err := exec.Command("git", "status", "--porcelain").Output()
	return head, err == nil && len(st) > 0
}
