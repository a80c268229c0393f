// Package obs is the unified telemetry layer: periodic state probes
// over congestion-control internals (Sampler), a named monotonic
// counter registry over the simulator core (Registry), a fixed-size
// flight recorder for post-mortem dumps (FlightRecorder), and
// deterministic run manifests (Manifest). See DESIGN.md §9.
//
// The layer follows the allocation-free discipline from PR 2: when a
// feature is off it costs at most one comparison on the hot path, and
// the Sampler piggybacks on the engine's event stream through the
// observer slot (sim.Engine.AddProbe) rather than scheduling timers, so enabling
// it cannot change the event sequence a seed produces.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"slowcc/internal/obs/probe"
	"slowcc/internal/sim"
)

// Sample is one probed value: at tick time T, variable Var of probe
// Probe read Value.
type Sample struct {
	T     sim.Time
	Probe string
	Var   string
	Value float64
}

// samplerVar is one registered variable with its qualified probe name.
type samplerVar struct {
	probe string
	v     probe.Var
}

// Sampler snapshots registered probe variables on a fixed cadence. It
// implements sim.ProbeHook and is installed with Install (the engine's
// observer slot): it observes every event's timestamp and, whenever the
// clock crosses a multiple of Interval, reads every registered Var.
// Because reads happen between events — synchronously, with no timers
// of its own — a sampled run executes exactly the same event sequence
// as an unsampled one.
//
// With Interval <= 0 the sampler is disabled: the first hook call
// answers "never wake me" (+Inf), so the engine stops calling it and
// the per-event cost collapses to one float comparison inside the
// engine (the alloc tests pin this path at zero allocations).
type Sampler struct {
	// Interval is the sampling cadence in simulated seconds; <= 0
	// disables sampling entirely.
	Interval sim.Time
	// Flight, when set, mirrors every sample into the flight recorder
	// so post-mortem dumps interleave probe state with packet events.
	Flight *FlightRecorder

	vars    []samplerVar
	next    sim.Time
	samples []Sample
}

// NewSampler returns a sampler with the given cadence (seconds per
// sample; <= 0 disabled).
func NewSampler(interval sim.Time) *Sampler {
	return &Sampler{Interval: interval}
}

// Add registers every variable of provider p under the probe name (a
// flow or queue identifier such as "flow1.tcp" or "red.lr").
func (s *Sampler) Add(name string, p probe.Provider) {
	if p == nil {
		return
	}
	s.AddVars(name, p.ProbeVars())
}

// AddVars registers an explicit variable list under the probe name.
func (s *Sampler) AddVars(name string, vars []probe.Var) {
	for _, v := range vars {
		if v.Read == nil {
			continue
		}
		s.vars = append(s.vars, samplerVar{probe: name, v: v})
	}
}

// Install adds the sampler to the engine's observer slot.
func (s *Sampler) Install(e *sim.Engine) { e.AddProbe(s) }

// OnEvent implements sim.ProbeHook. It fires the sample loop for every
// cadence tick at or before the event about to execute, reading state
// as of the inter-event boundary (all effects up to the previous event
// applied, none of this one's). The returned wake time — the next
// cadence tick, or +Inf when disabled — lets the engine skip the hook
// call entirely for events between ticks.
func (s *Sampler) OnEvent(prev, at sim.Time, seq uint64) sim.Time {
	if s.Interval <= 0 {
		return sim.Time(math.Inf(1))
	}
	for at >= s.next {
		s.sampleAt(s.next)
		s.next += s.Interval
	}
	return s.next
}

// sampleAt reads every registered variable, stamping the samples with
// the tick time t so downstream series are evenly spaced.
func (s *Sampler) sampleAt(t sim.Time) {
	for _, sv := range s.vars {
		smp := Sample{T: t, Probe: sv.probe, Var: sv.v.Name, Value: sv.v.Read()}
		s.samples = append(s.samples, smp)
		if s.Flight != nil {
			s.Flight.AddSample(smp)
		}
	}
}

// Samples returns all recorded samples in recording order (time-major,
// registration order within a tick).
func (s *Sampler) Samples() []Sample { return s.samples }

// Latest returns the most recent value of every sampled variable keyed
// "probe.var" — the gauge view of the sample log that the Prometheus
// exposition renders. Nil when nothing has been sampled.
func (s *Sampler) Latest() map[string]float64 {
	if len(s.samples) == 0 {
		return nil
	}
	out := make(map[string]float64)
	for _, smp := range s.samples { // recording order: later ticks overwrite
		out[smp.Probe+"."+smp.Var] = smp.Value
	}
	return out
}

// Series extracts the time series for one probe variable.
func (s *Sampler) Series(probeName, varName string) (ts []sim.Time, vs []float64) {
	for _, smp := range s.samples {
		if smp.Probe == probeName && smp.Var == varName {
			ts = append(ts, smp.T)
			vs = append(vs, smp.Value)
		}
	}
	return ts, vs
}

// ProbeNames returns the sorted set of distinct "probe/var" keys that
// have at least one sample.
func (s *Sampler) ProbeNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, smp := range s.samples {
		k := smp.Probe + "/" + smp.Var
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// WriteTSV writes the samples as tab-separated values with a header
// row, the same shape (time first, %.6f timestamps) as the packet-trace
// TSV so existing plotting recipes apply.
func (s *Sampler) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "t\tprobe\tvar\tvalue"); err != nil {
		return err
	}
	for _, smp := range s.samples {
		if _, err := fmt.Fprintf(bw, "%.6f\t%s\t%s\t%g\n",
			smp.T, smp.Probe, smp.Var, smp.Value); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSamplesTSV parses the format WriteTSV emits (header required).
func ReadSamplesTSV(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var out []Sample
	first := true
	for sc.Scan() {
		line := sc.Text()
		if first {
			first = false
			if line == "t\tprobe\tvar\tvalue" {
				continue
			}
			return nil, fmt.Errorf("obs: not a probe TSV (header %q)", line)
		}
		if line == "" {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			return nil, fmt.Errorf("obs: bad probe TSV line %q", line)
		}
		t, err1 := strconv.ParseFloat(f[0], 64)
		v, err2 := strconv.ParseFloat(f[3], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("obs: bad probe TSV line %q", line)
		}
		out = append(out, Sample{T: t, Probe: f[1], Var: f[2], Value: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
