package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// cellLine is the per-cell replay report of a traced run.
var cellLine = regexp.MustCompile(`(?m)^# cell \d+ events=\d+ digest=[0-9a-f]{16} cc_calls=\d+ ingress_calls=\d+$`)

// TestTinyWorkloadsReportEveryMetric runs each workload at a tiny scale,
// timed and traced, and checks the result line: exactly the four keys,
// every metric BENCHMARK.json names for that mode with its unit and no
// other, a clean correctness check, and a passing replay-digest check.
func TestTinyWorkloadsReportEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			o := options{workload: wl.Name, seed: 1, seconds: 0.05, trace: trace, dir: t.TempDir(), tiny: true}
			if err := run(o, &out); err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s trace=%v: last line is not JSON: %v", wl.Name, trace, err)
			}
			if len(raw) != 4 {
				t.Errorf("%s trace=%v: result keys %d, want correct/attempted/failed/metrics", wl.Name, trace, len(raw))
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					wl.Name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			if trace && !cellLine.MatchString(out.String()) {
				t.Errorf("%s: traced run printed no per-cell replay counts", wl.Name)
			}
		}
	}
}

// TestReplayReproducesSweep replays every computed cell of a tiny traced
// sweep and requires each cell's stream digest, event count, counters
// and result to match what the sweep reported; a replay on the wrong
// seed must not.
func TestReplayReproducesSweep(t *testing.T) {
	for _, name := range workloadNames {
		wl, _ := lookupWorkload(name, true)
		dir := t.TempDir()
		p, err := wl.setup([]int64{3}, dir)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tracedSweep(wl, p, 3, dir)
		if err != nil {
			t.Fatal(err)
		}
		cells := tr.computed()
		if int64(len(cells)) != int64(tr.sweep.cells)-wl.expectedHits() {
			t.Fatalf("%s: %d computed cells of %d", name, len(cells), tr.sweep.cells)
		}
		for _, r := range replayCells(wl, tr.sweep, cells) {
			if msg := verifyReplay(r, tr); msg != "" {
				t.Errorf("%s cell %d: %s", name, r.index, msg)
			}
			if r.tr.cc.calls == 0 || r.tr.ingress.calls == 0 {
				t.Errorf("%s cell %d: no wrapped handler calls (cc %d, ingress %d)", name, r.index, r.tr.cc.calls, r.tr.ingress.calls)
			}
		}
		// The check must bite: the same cells on another seed differ.
		wrong := *tr.sweep
		wrong.fig45Config.Scenario.Seed++
		wrong.matrixConfig.Seed++
		for _, r := range replayCells(wl, &wrong, cells[:1]) {
			if verifyReplay(r, tr) == "" {
				t.Errorf("%s: replay on the wrong seed passed the digest check", name)
			}
		}
	}
}

// TestStoreReplayReadsBack checks the store replay against a resumed
// tiny sweep's entries.
func TestStoreReplayReadsBack(t *testing.T) {
	wl, _ := lookupWorkload("matrix-resume", true)
	dir := t.TempDir()
	p, err := wl.setup([]int64{1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.prepareSweep(p, 1, dir); err != nil {
		t.Fatal(err)
	}
	r, err := wl.sweep(p, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.hits != wl.expectedHits() || r.misses != int64(r.cells)-r.hits {
		t.Fatalf("hits %d misses %d over %d cells, want %d hits", r.hits, r.misses, r.cells, wl.expectedHits())
	}
	sr, err := replayStore(r.entries, filepath.Join(dir, "replay"))
	if err != nil {
		t.Fatal(err)
	}
	if sr.entries != r.cells || sr.mismatches != 0 || len(sr.putUS) != r.cells || sr.journalBytes == 0 {
		t.Errorf("store replay: %d entries, %d mismatches, %d puts, %d journal bytes",
			sr.entries, sr.mismatches, len(sr.putUS), sr.journalBytes)
	}
}

// TestEventCountIsChecked requires every measured sweep to count the
// events its computed cells executed, and a sweep whose count differs
// from its pin to fail every cell even when its output matches.
func TestEventCountIsChecked(t *testing.T) {
	for _, name := range workloadNames {
		wl, _ := lookupWorkload(name, true)
		dir := t.TempDir()
		p, err := wl.setup([]int64{1}, dir)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tracedSweep(wl, p, 1, dir)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.sweep.eventsMeasured || tr.sweep.events == 0 {
			t.Fatalf("%s: traced sweep counted %d events", name, tr.sweep.events)
		}
		if name == "matrix-resume" {
			// Untimed by the sink, the resumed sweep counts from the
			// store's cell stats, and must agree with the sink.
			if err := wl.prepareSweep(p, 1, dir); err != nil {
				t.Fatal(err)
			}
			r, err := wl.sweep(p, 1, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !r.eventsMeasured || r.events != tr.sweep.events {
				t.Errorf("%s: store stats count %d events, the sink %d", name, r.events, tr.sweep.events)
			}
		}
		var out bytes.Buffer
		chk := &checker{wl: wl, w: &out}
		chk.check(tr.sweep, &pinned{Events: tr.sweep.events, SHA256: tr.sweep.sha()})
		if chk.failed != 0 {
			t.Errorf("%s: the right pin failed %d cells: %s", name, chk.failed, out.String())
		}
		chk.check(tr.sweep, &pinned{Events: tr.sweep.events + 1, SHA256: tr.sweep.sha()})
		if chk.failed != tr.sweep.cells || !strings.Contains(out.String(), "events executed") {
			t.Errorf("%s: a wrong event pin failed %d of %d cells: %s", name, chk.failed, tr.sweep.cells, out.String())
		}
	}
}

// TestLayersMapping requires layers.json to say, for every per-layer
// metric of BENCHMARK.json, which end-to-end metric it should move and
// on which workloads, and to give every workload its reason.
func TestLayersMapping(t *testing.T) {
	spec := loadSpec(t)
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm struct {
		Workloads map[string]string `json:"workloads"`
		PerLayer  map[string]struct {
			Moves       string   `json:"moves"`
			On          []string `json:"on"`
			UnchangedOn []string `json:"unchanged_on"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &lm); err != nil {
		t.Fatal(err)
	}
	e2e, wls := map[string]bool{}, map[string]bool{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = true
	}
	for _, w := range spec.Workloads {
		wls[w.Name] = true
		if lm.Workloads[w.Name] == "" {
			t.Errorf("layers.json: no reason for workload %s", w.Name)
		}
	}
	if len(lm.PerLayer) != len(spec.PerLayer) {
		t.Errorf("layers.json maps %d per-layer metrics, BENCHMARK.json names %d", len(lm.PerLayer), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		e, ok := lm.PerLayer[m.Name]
		if !ok {
			t.Errorf("layers.json: %s unmapped", m.Name)
			continue
		}
		if !e2e[e.Moves] {
			t.Errorf("layers.json: %s moves unknown end-to-end metric %q", m.Name, e.Moves)
		}
		for _, w := range append(append([]string(nil), e.On...), e.UnchangedOn...) {
			if !wls[w] {
				t.Errorf("layers.json: %s names unknown workload %q", m.Name, w)
			}
		}
	}
}

// TestPinsCoverEveryWorkload requires every workload to be pinned at
// exactly the seeds runs can use, and workload seeds to map onto
// disjoint seed sets that wrap around after the pinned range.
func TestPinsCoverEveryWorkload(t *testing.T) {
	pf, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		wl, _ := lookupWorkload(name, false)
		if n, want := len(pf[name]), pinnedWorkloadSeeds*wl.seedsPerRun(); n != want {
			t.Fatalf("%s: %d pins, want %d", name, n, want)
		}
		seen := map[int64]bool{}
		for s := int64(1); s <= pinnedWorkloadSeeds; s++ {
			seeds := runSeeds(wl, s)
			pins, err := pinsFor(pf, wl, seeds)
			if err != nil {
				t.Fatal(err)
			}
			for _, sim := range seeds {
				if seen[sim] {
					t.Errorf("%s: seed %d used by two workload seeds", name, sim)
				}
				seen[sim] = true
				if p := pins[sim]; p.Events == 0 || len(p.SHA256) != 64 {
					t.Errorf("%s seed %d: pin %+v", name, sim, p)
				}
			}
		}
		if got, want := runSeeds(wl, 1+pinnedWorkloadSeeds), runSeeds(wl, 1); formatSeeds(got) != formatSeeds(want) {
			t.Errorf("%s: seeds past the pinned range map to %v, want %v", name, got, want)
		}
	}
}

// TestCompareRefusesIncomparableSets checks that result sets with a
// different GOMAXPROCS or seed list are refused.
func TestCompareRefusesIncomparableSets(t *testing.T) {
	rec := func(procs int, seed int64) record {
		return record{Stamp: stamp{Workload: "fig45", Seed: seed, GOMAXPROCS: procs},
			Result: &result{Metrics: map[string]metric{"sweep_s": {1, "s"}}}}
	}
	base := []record{rec(2, 1), rec(2, 2)}
	if err := comparable(base, []record{rec(2, 2), rec(2, 1)}); err != nil {
		t.Errorf("same GOMAXPROCS and seeds refused: %v", err)
	}
	if err := comparable(base, []record{rec(4, 1), rec(4, 2)}); err == nil {
		t.Error("different GOMAXPROCS accepted")
	}
	if err := comparable(base, []record{rec(2, 1), rec(2, 3)}); err == nil {
		t.Error("different seeds accepted")
	}
}
