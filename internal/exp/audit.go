package exp

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"slowcc/internal/cc/rap"
	"slowcc/internal/cc/tcp"
	"slowcc/internal/cc/tear"
	"slowcc/internal/cc/tfrc"
	"slowcc/internal/faults"
	"slowcc/internal/invariant"
	"slowcc/internal/obs"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// Audit mode makes every scenario a figure driver constructs run under
// the internal/invariant auditing layer: packet conservation on every
// link, clock sanity on every event, and per-flow byte and bound checks.
// The exp tests enable it for the whole package (see TestMain), so the
// scaled-down figure suite cannot pass while any accounting invariant is
// broken; benchmarks and production runs leave it off, so no auditor
// sits in the engine's observer slot. The collector is shared across engines because sweep
// drivers run scenarios concurrently via parallelMap.
var audit struct {
	mu         sync.Mutex
	enabled    bool
	flightDir  string // when non-empty, audited scenarios dump here
	flightSeq  atomic.Int64
	total      int64
	violations []invariant.Violation // capped at auditMaxRecorded
	auditors   map[*sim.Engine]*invariant.Auditor
}

const auditMaxRecorded = 200

// flightRingSize bounds the per-scenario flight recorder: enough recent
// bottleneck events to see the lead-up to a violation, small enough
// that the audited figure suite's memory stays flat.
const flightRingSize = 512

// EnableAudit turns invariant auditing of figure-driver scenarios on or
// off. It affects scenarios constructed after the call.
func EnableAudit(on bool) {
	audit.mu.Lock()
	defer audit.mu.Unlock()
	audit.enabled = on
	if on && audit.auditors == nil {
		audit.auditors = make(map[*sim.Engine]*invariant.Auditor)
	}
}

// EnableFlightDump makes every audited scenario keep a flight recorder
// over its forward bottleneck and dump it into dir (as
// flight-<n>.dump) when an invariant violation fires, so an audit
// failure in the figure suite leaves the packet-level lead-up on disk
// instead of only a counter. Empty dir disables it. Takes effect for
// scenarios constructed after the call; requires audit mode. Returns
// the previous directory so callers can restore it.
func EnableFlightDump(dir string) (prev string) {
	audit.mu.Lock()
	defer audit.mu.Unlock()
	prev = audit.flightDir
	audit.flightDir = dir
	return prev
}

// AuditViolations returns the number of invariant violations observed so
// far and a snapshot of the recorded ones.
func AuditViolations() (int64, []invariant.Violation) {
	audit.mu.Lock()
	defer audit.mu.Unlock()
	return audit.total, append([]invariant.Violation(nil), audit.violations...)
}

// ResetAudit clears the violation collector (test isolation).
func ResetAudit() {
	audit.mu.Lock()
	defer audit.mu.Unlock()
	audit.total = 0
	audit.violations = nil
}

func recordAuditViolation(v invariant.Violation) {
	audit.mu.Lock()
	defer audit.mu.Unlock()
	audit.total++
	if len(audit.violations) < auditMaxRecorded {
		audit.violations = append(audit.violations, v)
	}
}

// newScenario constructs the engine and dumbbell every figure driver
// runs on, wiring the invariant auditor through both when audit mode is
// enabled, applying the global run budget and fault configuration (the
// -max-events / -fault CLI paths), and — for a supervised sweep cell —
// keeping a flight recorder the supervisor can dump if the cell
// panics. c is nil outside supervised sweeps.
func newScenario(c *Cell, seed int64, tc topology.Config) (*sim.Engine, *topology.Dumbbell) {
	eng, d, _ := newFaultScenario(c, seed, tc, nil)
	return eng, d
}

// newFaultScenario is newScenario with an explicit fault configuration
// (the outage experiment's path). A nil fc falls back to the global one
// installed by SetFaultConfig; the returned injector is nil when neither
// is enabled.
func newFaultScenario(c *Cell, seed int64, tc topology.Config, fc *faults.Config) (*sim.Engine, *topology.Dumbbell, *faults.Injector) {
	eng := sim.New(seed)
	budget, fault, pol, collect := scenarioGlobals()
	if fc == nil {
		fc = fault
	}
	if budget != nil {
		eng.SetBudget(budget)
	}
	var inj *faults.Injector
	if fc != nil && fc.Enabled() {
		cfg := *fc
		if cfg.Seed == 0 {
			cfg.Seed = seed // default the fault stream onto the cell's seed
		}
		inj = faults.New(eng, cfg)
		tc.Fault = inj
	}
	audit.mu.Lock()
	on := audit.enabled
	flightDir := audit.flightDir
	audit.mu.Unlock()
	var a *invariant.Auditor
	if on {
		a = invariant.New(eng)
		a.Report = recordAuditViolation
		tc.Audit = a
		audit.mu.Lock()
		audit.auditors[eng] = a
		audit.mu.Unlock()
	}
	d := topology.New(eng, tc)
	if a != nil && flightDir != "" {
		fr := obs.NewFlightRecorder(flightRingSize)
		d.LR.AddTap(fr.LinkTap())
		a.Flight = fr
		a.DumpPath = filepath.Join(flightDir,
			fmt.Sprintf("flight-%d.dump", audit.flightSeq.Add(1)))
	}
	if c != nil && pol.FlightDir != "" {
		ring := pol.FlightRing
		if ring == 0 {
			ring = flightRingSize
		}
		fr := obs.NewFlightRecorder(ring)
		d.LR.AddTap(fr.LinkTap())
		c.flight = fr
	}
	if c != nil && collect {
		c.observe(eng, func(reg *obs.Registry) { d.Observe(reg) })
	}
	return eng, d, inj
}

// observe attaches live-telemetry collection points to one engine the
// cell constructed: a counter registry populated by the topology's
// Observe, and a stream digest folding the engine's event stream (a hook
// in the engine's observer slot, woken on every event while the cell
// runs). The supervisor
// snapshots both into obs.CellStats after the job returns.
func (c *Cell) observe(eng *sim.Engine, register func(*obs.Registry)) {
	reg := &obs.Registry{}
	register(reg)
	dig := &sim.StreamDigest{}
	eng.SetStreamDigest(dig)
	c.obsv = append(c.obsv, cellObs{eng: eng, reg: reg, dig: dig})
}

// newNetScenario is the parking-lot counterpart of newFaultScenario: it
// constructs the engine and chain with the same global budget, fault,
// audit, and flight-recorder wiring the dumbbell scenarios get. The
// fault configuration (explicit fc, else the global one) attaches to
// hop faultHop — multi-bottleneck scenarios pick which hop degrades.
// The flight recorder taps the first hop, the chain's analogue of LR.
func newNetScenario(c *Cell, seed int64, nc topology.NetConfig, fc *faults.Config, faultHop int) (*sim.Engine, *topology.Net, *faults.Injector) {
	eng := sim.New(seed)
	budget, fault, pol, collect := scenarioGlobals()
	if fc == nil {
		fc = fault
	}
	if budget != nil {
		eng.SetBudget(budget)
	}
	var inj *faults.Injector
	if fc != nil && fc.Enabled() {
		cfg := *fc
		if cfg.Seed == 0 {
			cfg.Seed = seed
		}
		inj = faults.New(eng, cfg)
		// fill() clones the hop slice, but that happens inside NewNet;
		// clone here too so the caller's config is not mutated.
		hops := append([]topology.Hop(nil), nc.Hops...)
		if len(hops) == 0 {
			hops = []topology.Hop{{}}
		}
		if faultHop < 0 || faultHop >= len(hops) {
			faultHop = 0
		}
		hops[faultHop].Fault = inj
		nc.Hops = hops
	}
	audit.mu.Lock()
	on := audit.enabled
	flightDir := audit.flightDir
	audit.mu.Unlock()
	var a *invariant.Auditor
	if on {
		a = invariant.New(eng)
		a.Report = recordAuditViolation
		nc.Audit = a
		audit.mu.Lock()
		audit.auditors[eng] = a
		audit.mu.Unlock()
	}
	n := topology.NewNet(eng, nc)
	if a != nil && flightDir != "" {
		fr := obs.NewFlightRecorder(flightRingSize)
		n.Fwd[0].AddTap(fr.LinkTap())
		a.Flight = fr
		a.DumpPath = filepath.Join(flightDir,
			fmt.Sprintf("flight-%d.dump", audit.flightSeq.Add(1)))
	}
	if c != nil && pol.FlightDir != "" {
		ring := pol.FlightRing
		if ring == 0 {
			ring = flightRingSize
		}
		fr := obs.NewFlightRecorder(ring)
		n.Fwd[0].AddTap(fr.LinkTap())
		c.flight = fr
	}
	if c != nil && collect {
		c.observe(eng, func(reg *obs.Registry) { n.Observe(reg) })
	}
	return eng, n, inj
}

// auditorFor returns the auditor attached to eng by newScenario, or nil.
func auditorFor(eng *sim.Engine) *invariant.Auditor {
	audit.mu.Lock()
	defer audit.mu.Unlock()
	return audit.auditors[eng]
}

// watchFlow registers a wired flow's byte counters and its sender's
// declared control-variable bounds with the scenario's auditor. The
// bounds are deliberately loose sanity envelopes — their job is to catch
// NaN, infinities, negative windows, and runaway state, not to encode
// algorithm dynamics.
func watchFlow(a *invariant.Auditor, name string, f Flow) {
	a.WatchFlow(name, f.SentBytes, f.RecvBytes)
	switch s := f.Sender.(type) {
	case *tcp.Sender:
		a.WatchValue(name+"/cwnd", s.Cwnd, 0, 1e7)
	case *rap.Sender:
		a.WatchValue(name+"/rate", s.RatePktsPerRTT, 0, 1e7)
	case *tfrc.Sender:
		a.WatchValue(name+"/rate", s.Rate, 0, 1e12)
	case *tear.Sender:
		a.WatchValue(name+"/rate", s.Rate, 0, 1e12)
	}
}
