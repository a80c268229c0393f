package sim_test

// External test package: obs imports sim, so pinning the observer
// slot's cost with a real obs.Sampler has to live outside package sim.

import (
	"testing"

	"slowcc/internal/obs"
	"slowcc/internal/obs/probe"
	"slowcc/internal/sim"
)

// Steady-state event turnover must stay allocation-free whatever sits
// in the observer slot: nothing (one comparison per event), a disabled
// sampler (its first OnEvent answers "never wake me"), or a stream
// digest (woken on every event). This is the "wired but off" half of the
// layer table; the benchmark half is BenchmarkEnginePacketsPerSecond.
func TestAllocsObserverSlot(t *testing.T) {
	for _, tc := range []struct {
		name    string
		install func(*sim.Engine)
	}{
		{"no-hook", func(*sim.Engine) {}},
		{"disabled-sampler", func(e *sim.Engine) {
			s := obs.NewSampler(0) // Interval <= 0: disabled
			s.AddVars("p", []probe.Var{{Name: "x", Read: func() float64 { return 1 }}})
			s.Install(e)
		}},
		{"digest", func(e *sim.Engine) { e.SetStreamDigest(&sim.StreamDigest{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.New(1)
			tc.install(e)
			var fn func(any)
			fn = func(arg any) { e.AfterFunc(0.001, fn, arg) }
			e.AfterFunc(0.001, fn, nil)
			e.RunUntil(1) // warm the timer free list
			var horizon sim.Time = 1
			avg := testing.AllocsPerRun(100, func() {
				horizon += 0.01
				e.RunUntil(horizon) // ~10 events per run
			})
			if avg != 0 {
				t.Fatalf("%s allocates %v times per run, want 0", tc.name, avg)
			}
		})
	}
}
