// Pinned event streams and the table of layer wirings, checked at the
// public surface. The table is the single definition of "a layer that is
// wired but off": TestPinnedMacroStream holds every row to the pinned
// seed-1 stream, and BenchmarkEnginePacketsPerSecond (bench_test.go)
// runs one sub-benchmark per benchmark row, which cmd/slowccbench pairs
// against the plain row. Adding a layer means adding one row.
//
// These tests and the reference-heap differential in internal/sim are
// the "queue smoke" the Makefile's ci target runs (see the queue-smoke
// target); keep their names on the TestPinned prefix so its -run
// pattern catches them.
package slowcc_test

import (
	"math"
	"testing"

	"slowcc"
	"slowcc/internal/invariant"
	"slowcc/internal/netem"
)

// The engine's pinned event streams. Both were measured while the heap
// and the calendar queue were still both production queues, on which
// they agreed exactly.
const (
	// pinnedMacroEvents and pinnedMacroDigest pin the seed-1 macro run:
	// two standard TCP flows over the default 10 Mbps dumbbell for 30 s.
	pinnedMacroEvents = 403989
	pinnedMacroDigest = 0x86e6964d4bd964b3
	// pinnedFaultedEvents and pinnedFaultedDigest pin faultedChainRun.
	pinnedFaultedEvents = 27535
	pinnedFaultedDigest = 0x001d8d649d2fd04c
)

// macroRun is one execution of the seed-1 macro run with one layer
// wired in. A layer sets the hook fields it needs; each may be nil.
type macroRun struct {
	eng        *slowcc.Engine
	cfg        slowcc.DumbbellConfig
	d          *slowcc.Dumbbell // nil when topology replaced it
	bottleneck *netem.Link
	flows      [2]slowcc.Flow

	// topology, when set, builds the fabric in place of the dumbbell
	// and returns it with its forward bottleneck.
	topology    func() (slowcc.Fabric, *netem.Link)
	beforeFlows func()
	afterFlows  func()
	// check runs after the run and proves the layer did what it claims
	// (stayed idle, or recorded what it should).
	check func(tb testing.TB)
}

// macroLayer is one row of the layer table.
type macroLayer struct {
	name string
	// bench marks the wired-but-off rows BenchmarkEnginePacketsPerSecond
	// times; the others are enabled layers only the pinned-stream test
	// covers.
	bench bool
	wire  func(tb testing.TB, m *macroRun)
}

// macroLayers is the layer table. The plain row comes first: it is the
// reference every other row is compared with.
var macroLayers = []macroLayer{
	{name: "plain", bench: true},
	{name: "obs-off", bench: true, wire: func(tb testing.TB, m *macroRun) {
		// A counter registry over the topology and a sampler at
		// interval 0 in the observer slot.
		smp := wireSampler(m, 0)
		m.check = func(tb testing.TB) {
			if n := len(smp.Samples()); n != 0 {
				tb.Fatalf("disabled sampler recorded %d samples", n)
			}
		}
	}},
	{name: "faults-off", bench: true, wire: func(tb testing.TB, m *macroRun) {
		// A zero-config injector: Attach hands the entry handler back
		// untouched and schedules nothing.
		inj := slowcc.NewFaultInjector(m.eng, slowcc.FaultConfig{})
		m.cfg.Fault = inj
		m.check = func(tb testing.TB) {
			if inj.Attached() {
				tb.Fatal("disabled injector attached a handler")
			}
		}
	}},
	{name: "topology-off", bench: true, wire: func(tb testing.TB, m *macroRun) {
		// An idle 2-hop parking lot on the same engine: links, RED
		// queues and routing tables exist but carry no traffic.
		n := slowcc.NewNet(m.eng, slowcc.NetConfig{
			Hops: []slowcc.NetHop{{Rate: 10e6}, {Rate: 10e6}},
			Seed: 99,
		})
		m.check = func(tb testing.TB) {
			if got := n.Fwd[0].Stats.Arrivals + n.Fwd[1].Stats.Arrivals; got != 0 {
				tb.Fatalf("idle chain carried %d packets", got)
			}
		}
	}},
	{name: "journeys-off", bench: true, wire: func(tb testing.TB, m *macroRun) {
		// The nil journey hook every link runs under permanently.
		m.beforeFlows = func() { m.d.ObserveJourneys(nil) }
	}},
	{name: "store-off", bench: true, wire: func(tb testing.TB, m *macroRun) {
		// A store open and registered as the sweep replay source, as in
		// every slowccsim -store run. It is consulted per sweep cell,
		// never per event, so the run must not touch it.
		st, err := slowcc.OpenStore(tb.TempDir())
		if err != nil {
			tb.Fatal(err)
		}
		prev := slowcc.SetSweepStore(st, true)
		m.check = func(tb testing.TB) {
			slowcc.SetSweepStore(prev, false)
			if st.Len() != 0 || st.Hits() != 0 || st.Misses() != 0 {
				tb.Fatalf("idle store was touched: %d entries, %d hits, %d misses",
					st.Len(), st.Hits(), st.Misses())
			}
			if err := st.Close(); err != nil {
				tb.Fatalf("closing the idle store: %v", err)
			}
		}
	}},
	{name: "sampler", wire: func(tb testing.TB, m *macroRun) {
		smp := wireSampler(m, 0.1)
		m.check = func(tb testing.TB) {
			if len(smp.Samples()) == 0 {
				tb.Fatal("sampler at 0.1 s recorded no samples")
			}
		}
	}},
	{name: "journeys", wire: func(tb testing.TB, m *macroRun) {
		rec := slowcc.NewJourneyRecorder()
		m.beforeFlows = func() { m.d.ObserveJourneys(rec) }
		m.check = func(tb testing.TB) {
			// The recorder observed the whole run: its per-hop components
			// must tile the end-to-end delay of every delivered packet.
			rec.Finalize()
			n, e2e, queue, tx, prop := rec.Attribution()
			if n == 0 {
				tb.Fatal("journey recorder saw no end-to-end packets")
			}
			if sum := queue + tx + prop; math.Abs(sum-e2e) > 1e-9*float64(n) {
				tb.Fatalf("attribution does not tile: q+tx+prop %v vs e2e %v over %d packets", sum, e2e, n)
			}
		}
	}},
	{name: "digest", wire: func(tb testing.TB, m *macroRun) {
		dig := &slowcc.StreamDigest{}
		m.eng.SetStreamDigest(dig)
		m.check = func(tb testing.TB) { checkDigest(tb, dig, pinnedMacroEvents, pinnedMacroDigest) }
	}},
	{name: "one-hop-net", wire: func(tb testing.TB, m *macroRun) {
		// A one-hop chain is the dumbbell: the chain path is an exact
		// generalization, not an approximation.
		m.topology = func() (slowcc.Fabric, *netem.Link) {
			n := slowcc.NewNet(m.eng, slowcc.NetConfig{Hops: []slowcc.NetHop{{Rate: 10e6}}, Seed: 1})
			return n, n.Fwd[0]
		}
	}},
}

// wireSampler registers a counter registry over the dumbbell and, once
// the flows exist, installs a sampler at the given cadence over the
// dumbbell's and both flows' probes.
func wireSampler(m *macroRun, interval slowcc.Time) *slowcc.Sampler {
	smp := slowcc.NewSampler(interval)
	m.afterFlows = func() {
		m.d.Observe(&slowcc.CounterRegistry{})
		m.d.ObserveProbes(smp)
		smp.Add("flow1", m.flows[0].Probes)
		smp.Add("flow2", m.flows[1].Probes)
		smp.Install(m.eng)
	}
	return smp
}

// benchClock is the part of *testing.B that runMacro pauses around a
// layer's own wiring and check; tests pass noClock.
type benchClock interface {
	StopTimer()
	StartTimer()
}

type noClock struct{}

func (noClock) StopTimer()  {}
func (noClock) StartTimer() {}

// runMacro executes the seed-1 macro run with layer l wired in.
// instrument, when non-nil, runs once the topology exists (the tests
// attach their trace tap and digest there). The clock is stopped around
// the run's own bookkeeping and the layer's wiring and check, so a
// benchmark charges its timed window with nothing the plain row does not
// also do.
func runMacro(tb testing.TB, l macroLayer, instrument func(*macroRun), clock benchClock) *macroRun {
	clock.StopTimer()
	m := &macroRun{cfg: slowcc.DumbbellConfig{Rate: 10e6, Seed: 1}}
	clock.StartTimer()
	m.eng = slowcc.NewEngine(1)
	untimed := func(f func()) {
		if f != nil {
			clock.StopTimer()
			f()
			clock.StartTimer()
		}
	}
	if l.wire != nil {
		clock.StopTimer()
		l.wire(tb, m)
		clock.StartTimer()
	}
	var fab slowcc.Fabric
	if m.topology != nil {
		fab, m.bottleneck = m.topology()
	} else {
		m.d = slowcc.NewDumbbell(m.eng, m.cfg)
		fab, m.bottleneck = m.d, m.d.LR
	}
	if instrument != nil {
		instrument(m)
	}
	untimed(m.beforeFlows)
	for i := range m.flows {
		m.flows[i] = slowcc.TCP(0.5).Make(m.eng, fab, i+1)
	}
	untimed(m.afterFlows)
	for _, f := range m.flows {
		m.eng.At(0, f.Sender.Start)
	}
	m.eng.RunUntil(30)
	if m.check != nil {
		clock.StopTimer()
		m.check(tb)
		clock.StartTimer()
	}
	return m
}

func checkDigest(tb testing.TB, dig *slowcc.StreamDigest, events uint64, sum uint64) {
	tb.Helper()
	if dig.Events() != events || dig.Sum() != sum {
		tb.Fatalf("stream digest covers %d events with sum %016x, want the pinned %d and %016x",
			dig.Events(), dig.Sum(), events, sum)
	}
}

// tracedMacroRun runs layer l with a bottleneck trace tap and, when dig
// is non-nil, a stream digest, returning the run and its trace.
func tracedMacroRun(tb testing.TB, l macroLayer, dig *slowcc.StreamDigest) (*macroRun, []slowcc.TraceEvent) {
	rec := &slowcc.Tracer{}
	m := runMacro(tb, l, func(m *macroRun) {
		m.bottleneck.AddTap(rec.LinkTap())
		if dig != nil {
			m.eng.SetStreamDigest(dig)
		}
	}, noClock{})
	return m, rec.Events()
}

// Every row reproduces the pinned seed-1 stream: the event count, the
// stream digest, and the bottleneck trace event for event against a
// bare plain run, which carries no digest, so the digest instrument is
// itself proven not to perturb the run.
func TestPinnedMacroStream(t *testing.T) {
	bare, want := tracedMacroRun(t, macroLayers[0], nil)
	if got := bare.eng.Steps(); got != pinnedMacroEvents {
		t.Fatalf("bare plain run executed %d events, want the pinned %d", got, pinnedMacroEvents)
	}
	for _, l := range macroLayers {
		t.Run(l.name, func(t *testing.T) {
			dig := &slowcc.StreamDigest{}
			m, got := tracedMacroRun(t, l, dig)
			if n := m.eng.Steps(); n != pinnedMacroEvents {
				t.Fatalf("executed %d events, want the pinned %d", n, pinnedMacroEvents)
			}
			checkDigest(t, dig, pinnedMacroEvents, pinnedMacroDigest)
			if len(got) != len(want) {
				t.Fatalf("trace lengths differ: %d vs plain %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trace event %d differs: %+v vs plain %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// Several hooks share the engine's observer slot through a fanout, each
// woken on its own schedule: an auditor and a digest on every event, a
// sampler every 0.1 s. Together they must see exactly what each sees
// alone.
func TestPinnedObserverFanout(t *testing.T) {
	sampled := func(extra func(*macroRun)) []slowcc.ProbeSample {
		var smp *slowcc.Sampler
		layer := macroLayer{name: "fanout", wire: func(tb testing.TB, m *macroRun) {
			smp = wireSampler(m, 0.1)
		}}
		runMacro(t, layer, extra, noClock{})
		return smp.Samples()
	}
	want := sampled(nil)

	dig := &slowcc.StreamDigest{}
	var a *invariant.Auditor
	got := sampled(func(m *macroRun) {
		a = invariant.New(m.eng)
		a.WatchLink("bottleneck", m.bottleneck)
		m.eng.SetStreamDigest(dig)
	})
	checkDigest(t, dig, pinnedMacroEvents, pinnedMacroDigest)
	if err := a.Err(); err != nil {
		t.Fatalf("auditor in the fanout: %v", err)
	}
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("fanout sampler recorded %d samples, sampler alone %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d differs: fanout %+v, sampler alone %+v", i, got[i], want[i])
		}
	}
}

// faultedChainRun builds a 3-hop parking-lot chain with a fault injector
// on every hop — an outage window plus corruption, duplication, and
// reordering probabilities high enough to land inside batched busy
// periods — and runs two TCP flows for 15 s under a stream digest.
func faultedChainRun() (*slowcc.Engine, *slowcc.Net, []*slowcc.FaultInjector, *slowcc.StreamDigest) {
	eng := slowcc.NewEngine(1)
	dig := &slowcc.StreamDigest{}
	eng.SetStreamDigest(dig)
	hops := make([]slowcc.NetHop, 3)
	var injs []*slowcc.FaultInjector
	for i := range hops {
		inj := slowcc.NewFaultInjector(eng, slowcc.FaultConfig{
			Seed:         int64(100 + i),
			Windows:      []slowcc.FaultWindow{{At: 4 + float64(i), Dur: 0.5}},
			CorruptProb:  0.01,
			DupProb:      0.01,
			ReorderProb:  0.02,
			ReorderDelay: 0.003,
		})
		hops[i] = slowcc.NetHop{Rate: 10e6, Fault: inj}
		injs = append(injs, inj)
	}
	n := slowcc.NewNet(eng, slowcc.NetConfig{Hops: hops, Seed: 1})
	f1 := slowcc.TCP(0.5).Make(eng, n, 1)
	f2 := slowcc.TCP(0.5).Make(eng, n, 2)
	eng.At(0, f1.Sender.Start)
	eng.At(0, f2.Sender.Start)
	eng.RunUntil(15)
	return eng, n, injs, dig
}

// The faulted parking lot reproduces its pinned stream, with outages,
// corruption, duplication and reordering all landing inside batched busy
// periods.
func TestPinnedFaultedParkingLot(t *testing.T) {
	eng, n, injs, dig := faultedChainRun()
	if got := eng.Steps(); got != pinnedFaultedEvents {
		t.Fatalf("faulted chain executed %d events, want the pinned %d", got, pinnedFaultedEvents)
	}
	checkDigest(t, dig, pinnedFaultedEvents, pinnedFaultedDigest)
	for i, inj := range injs {
		if inj.Stats.Corrupted == 0 && inj.Stats.Reordered == 0 {
			t.Fatalf("hop %d injector inflicted nothing; the pin is not exercising faults", i)
		}
	}
	// Three hops, one outage window each, two transitions per window.
	for i := range n.Fwd {
		if n.Fwd[i].Transitions != 2 {
			t.Fatalf("hop %d saw %d transitions, want 2", i, n.Fwd[i].Transitions)
		}
	}
}
