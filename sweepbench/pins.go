package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"slowcc/internal/exp"
)

// pins.json records, per workload and simulation seed, the exact number
// of events a sweep executes and the sha256 of its deterministic output
// (matrix TSV, fig45 JSON). Every seed a run can use is pinned, so every
// run is checked; seed 1 is the benchmark seed.
//
//go:embed pins.json
var pinsJSON []byte

type pinned struct {
	Events uint64 `json:"events"`
	SHA256 string `json:"sha256"`
}

// pinFile maps workload -> simulation seed -> pin.
type pinFile map[string]map[string]*pinned

func loadPins() (pinFile, error) {
	var pf pinFile
	if err := json.Unmarshal(pinsJSON, &pf); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pf, nil
}

// pinnedWorkloadSeeds is how many workload seeds pins.json covers: a
// workload's pinned simulation seeds are 1..pinnedWorkloadSeeds*seedsPerRun.
const pinnedWorkloadSeeds = 10

// runSeeds maps a workload seed onto the simulation seeds one run
// sweeps: seedsPerRun consecutive seeds, so workload seeds 1, 2, ...
// cover disjoint sets 1..k, k+1..2k, ... and wrap around after
// pinnedWorkloadSeeds.
func runSeeds(wl workload, seed int64) []int64 {
	k := int64(wl.seedsPerRun())
	const n = pinnedWorkloadSeeds
	base := ((seed-1)%n + n) % n * k
	out := make([]int64, k)
	for i := range out {
		out[i] = base + int64(i) + 1
	}
	return out
}

// pinsFor returns the pins for seeds, or an error naming a missing one.
func pinsFor(pf pinFile, wl workload, seeds []int64) (map[int64]*pinned, error) {
	out := map[int64]*pinned{}
	for _, s := range seeds {
		p := pf[wl.name][strconv.FormatInt(s, 10)]
		if p == nil {
			return nil, fmt.Errorf("pins.json has no pin for %s at seed %d (regenerate with -pin)", wl.name, s)
		}
		out[s] = p
	}
	return out, nil
}

// pinMain recomputes the pins of every workload for workload seeds
// 1..pinnedWorkloadSeeds and writes pins.json's new content to w. Matrix-resume must
// reproduce a cold matrix sweep's output byte for byte; a mismatch
// refuses to pin.
func pinMain(dir string, w io.Writer) error {
	pf := pinFile{}
	for _, name := range workloadNames {
		wl, _ := lookupWorkload(name, false)
		pf[name] = map[string]*pinned{}
		for s := int64(1); s <= pinnedWorkloadSeeds*int64(wl.seedsPerRun()); s++ {
			seeds := []int64{s}
			p, err := wl.setup(seeds, dir)
			if err != nil {
				return err
			}
			pins := map[int64]*pinned{}
			if err := discoverPins(wl, p, seeds, pins, dir); err != nil {
				return err
			}
			if name == "matrix-resume" {
				cold := &sweepResult{output: []byte(exp.RenderMatrixTSV(exp.Matrix(wl.matrixConfig(s))))}
				if cold.sha() != pins[s].SHA256 {
					return fmt.Errorf("seed %d: resumed matrix output differs from the cold matrix", s)
				}
			}
			pf[name][strconv.FormatInt(s, 10)] = pins[s]
		}
	}
	b, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// discoverPins fills in the pin of every seed pins lacks from one traced
// sweep, refusing a sweep that failed a cell or missed a store hit.
func discoverPins(wl workload, p prepared, seeds []int64, pins map[int64]*pinned, dir string) error {
	for _, s := range seeds {
		if pins[s] != nil {
			continue
		}
		tr, err := tracedSweep(wl, p, s, dir)
		if err != nil {
			return err
		}
		if tr.sweep.failed > 0 || tr.sweep.hits != wl.expectedHits() {
			return fmt.Errorf("%s seed %d: %d failed cells, %d store hits", wl.name, s, tr.sweep.failed, tr.sweep.hits)
		}
		pins[s] = &pinned{Events: tr.computedEvents(), SHA256: tr.sweep.sha()}
	}
	return nil
}
