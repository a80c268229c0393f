// The fault-injection layer's CLI-facing path, checked at the public
// surface. (That a wired-but-disabled injector leaves the event stream
// alone is a row of the layer table in pinned_test.go.)
package slowcc_test

import (
	"testing"

	"slowcc"
)

// TestTraceRunFaultSpec checks the CLI-facing path end to end: a "none"
// spec wires nothing and keeps the pinned schedule; an outage spec
// changes the run and records itself in the manifest.
func TestTraceRunFaultSpec(t *testing.T) {
	base := slowcc.TraceRunConfig{
		Seed: 1, Rate: 10e6, Duration: 30,
		Algos: []slowcc.Algorithm{slowcc.TCP(0.5), slowcc.TCP(0.5)},
	}

	none := base
	none.FaultSpec = "none"
	r := slowcc.NewTraceRun(none)
	r.Run()
	if got := r.Eng.Steps(); got != pinnedMacroEvents {
		t.Fatalf("FaultSpec 'none' run executed %d events, want the pinned %d", got, pinnedMacroEvents)
	}
	if r.Manifest("t").Config["fault"] != "none" {
		t.Fatal("manifest does not record the fault spec")
	}

	outage := base
	outage.FaultSpec = "down:10+5"
	r2 := slowcc.NewTraceRun(outage)
	r2.Run()
	if r2.Eng.Steps() == pinnedMacroEvents {
		t.Fatal("a 5s bottleneck outage left the event count unchanged")
	}
	if r2.D.LR.Transitions != 2 {
		t.Fatalf("outage run saw %d link transitions, want 2", r2.D.LR.Transitions)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("invalid FaultSpec did not panic")
		}
	}()
	bad := base
	bad.FaultSpec = "corrupt:2"
	slowcc.NewTraceRun(bad)
}
