package main

import (
	"strings"
	"testing"
)

// The record attributes its measurement to a commit; a dirty worktree
// must therefore refuse to measure unless the override is explicit.
func TestGuardDirtyRefusesDirtyWorktree(t *testing.T) {
	err := guardDirty(true, false)
	if err == nil {
		t.Fatal("dirty worktree without -allow-dirty did not refuse")
	}
	if !strings.Contains(err.Error(), "-allow-dirty") {
		t.Fatalf("refusal %q does not name the -allow-dirty override", err)
	}
	if err := guardDirty(true, true); err != nil {
		t.Fatalf("dirty worktree with -allow-dirty refused: %v", err)
	}
	if err := guardDirty(false, false); err != nil {
		t.Fatalf("clean worktree refused: %v", err)
	}
}

func TestSpreadOfFlagsUnstableRuns(t *testing.T) {
	spreads, unstable := spreadOf(map[string][]float64{
		"Steady": {100, 102, 101},
		"Noisy":  {100, 140, 120},
		"Single": {50},
	})
	if s := spreads["Steady"]; s.Unstable || s.MinNs != 100 || s.MaxNs != 102 {
		t.Fatalf("steady spread misreported: %+v", s)
	}
	if s := spreads["Noisy"]; !s.Unstable || s.MinNs != 100 || s.MaxNs != 140 || s.Rel != 0.4 {
		t.Fatalf("noisy spread misreported: %+v", s)
	}
	if s := spreads["Single"]; s.Unstable || s.Rel != 0 {
		t.Fatalf("single-run spread misreported: %+v", s)
	}
	if len(unstable) != 1 || unstable[0] != "Noisy" {
		t.Fatalf("unstable list %v, want [Noisy]", unstable)
	}
}

// Every layer row is gated against plain from the same run: in-cap rows
// pass, and a row that is too slow, allocates, drifts in events, or
// drops out of one of the -count runs fails its gate instead of passing
// silently.
func TestLayerGates(t *testing.T) {
	g := gates{MaxLayerSlowdown: 1.02, MaxLayerExtraAllocs: 0}
	pr2c := map[string]float64{"ns/op": 388, "events": 403989, "allocs/op": 438}
	row := func(ns, events, allocs float64) map[string]float64 {
		return map[string]float64{"ns/op": ns, "events": events, "allocs/op": allocs}
	}
	const count = 3
	runs := []float64{100, 101, 102}
	for _, tc := range []struct {
		name   string
		layer  map[string]float64
		runs   []float64 // the layer row's per-run ns/op samples
		passes bool
	}{
		{"in cap", row(101, 403989, 437), runs, true},
		{"at cap", row(102, 403989, 438), runs, true},
		{"too slow", row(103, 403989, 437), runs, false},
		{"extra allocs", row(101, 403989, 439), runs, false},
		{"events drift", row(101, 403988, 437), runs, false},
		{"missing from a run", row(101, 403989, 437), runs[:count-1], false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := map[string]map[string]float64{
				macroPlain:         row(100, 403989, 437),
				macro + "/layer":   tc.layer,
				"TCPFlowSimSecond": row(5, 0, 0),
			}
			ns := map[string][]float64{macroPlain: runs, macro + "/layer": tc.runs}
			out := layerGates(cur, ns, count, pr2c, g)
			if len(out) != 1 || out[0].Benchmark != macro+"/layer" {
				t.Fatalf("gated rows %+v, want exactly %s/layer", out, macro)
			}
			if out[0].Pass != tc.passes {
				t.Fatalf("gate pass = %v, want %v: %+v", out[0].Pass, tc.passes, out[0])
			}
		})
	}
}

// A run whose output carries no layer rows at all — a renamed
// benchmark, a broken -bench pattern — fails rather than gating
// nothing.
func TestLayerGatesWithoutRowsFail(t *testing.T) {
	cur := map[string]map[string]float64{macroPlain: {"ns/op": 100, "events": 403989, "allocs/op": 437}}
	out := layerGates(cur, map[string][]float64{macroPlain: {100}}, 1, cur[macroPlain], gates{MaxLayerSlowdown: 1.02})
	if len(out) != 1 || out[0].Pass {
		t.Fatalf("run without layer rows gated as %+v, want one failing outcome", out)
	}
}
