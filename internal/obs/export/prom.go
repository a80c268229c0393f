// Package export is the live telemetry backbone: Prometheus
// text-exposition (v0.0.4) rendering of the obs layer (Registry
// counters, HDR histograms with their cumulative buckets, probe
// gauges), a merge collector and SSE progress hub for supervised
// sweeps, and an embeddable HTTP server mounting /metrics, /healthz,
// /progress, and /debug/pprof — the surface the slowccd sweep service
// (ROADMAP item 1) will serve unchanged. See DESIGN.md §14.
//
// Everything here runs beside the simulator, never inside it: cells
// snapshot their telemetry after their engines finish, scrapes read
// merged copies under the collector's lock, and the wired-but-off cost
// on the event hot path stays the engine's one observer-slot comparison
// (the stream digest is a hook in that slot; see sim.StreamDigest).
package export

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"slowcc/internal/obs"
)

// Namespace prefixes every exposed metric name.
const Namespace = "slowcc"

// PromName projects a registry metric name onto its Prometheus-legal
// form: the name is canonicalized (obs.CanonicalMetricName), the
// registry's component separators '.' and '-' become '_', anything else
// outside [a-zA-Z0-9_:] becomes '_' too, and the slowcc namespace is
// prepended unless already present. The projection is total and
// deterministic, so a name fixed at registration time always scrapes
// under the same exposed name:
//
//	engine.scheduled                  -> slowcc_engine_scheduled
//	journey.access-1-lr-in.drop_burst -> slowcc_journey_access_1_lr_in_drop_burst
func PromName(name string) string {
	name = obs.CanonicalMetricName(name)
	name = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == ':':
			return r
		}
		return '_'
	}, name)
	if name == Namespace || strings.HasPrefix(name, Namespace+"_") {
		return name
	}
	return Namespace + "_" + name
}

// promFloat renders a float64 sample value the way Prometheus parses
// it back (shortest round-trip form; infinities as +Inf/-Inf).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the text format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// expoWriter accumulates one exposition document, keeping family names
// unique (first writer wins — callers emit in a fixed family order, so
// the output is deterministic) and remembering the first error.
type expoWriter struct {
	bw   *bufio.Writer
	seen map[string]bool
	err  error
}

func newExpoWriter(w io.Writer) *expoWriter {
	return &expoWriter{bw: bufio.NewWriter(w), seen: map[string]bool{}}
}

// claim reserves a family name, reporting whether this caller owns it.
func (e *expoWriter) claim(name string) bool {
	if e.seen[name] {
		return false
	}
	e.seen[name] = true
	return true
}

func (e *expoWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.bw, format, args...)
}

func (e *expoWriter) flush() error {
	if e.err != nil {
		return e.err
	}
	return e.bw.Flush()
}

// counter emits one counter family with a single unlabeled sample.
func (e *expoWriter) counter(name string, v int64) {
	if !e.claim(name) {
		return
	}
	e.printf("# TYPE %s counter\n%s %d\n", name, name, v)
}

// gauge emits one gauge family with a single unlabeled sample.
func (e *expoWriter) gauge(name string, v float64) {
	if !e.claim(name) {
		return
	}
	e.printf("# TYPE %s gauge\n%s %s\n", name, name, promFloat(v))
}

// info emits the info-metric idiom: a gauge that is always 1 whose
// labels carry values a float64 sample can't (a 64-bit digest exceeds
// float64's 2^53 integer range, so it travels as a hex label).
func (e *expoWriter) info(name string, labels [][2]string) {
	if !e.claim(name) {
		return
	}
	parts := make([]string, 0, len(labels))
	for _, kv := range labels {
		parts = append(parts, fmt.Sprintf("%s=%q", kv[0], escapeLabel(kv[1])))
	}
	e.printf("# TYPE %s gauge\n%s{%s} 1\n", name, name, strings.Join(parts, ","))
}

// histogram emits one cumulative histogram family from an obs.Histogram
// snapshot: one _bucket line per occupied HDR bucket, the +Inf bucket
// from the exact count (top-clamped values land beyond the last finite
// edge), then _sum and _count from the histogram's exact accumulators.
func (e *expoWriter) histogram(name string, h *obs.Histogram) {
	if !e.claim(name) {
		return
	}
	e.printf("# TYPE %s histogram\n", name)
	for _, b := range h.CumBuckets() {
		e.printf("%s_bucket{le=%q} %d\n", name, promFloat(b.Le), b.Count)
	}
	e.printf("%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
	e.printf("%s_sum %s\n", name, promFloat(h.Sum()))
	e.printf("%s_count %d\n", name, h.Count())
}

// summary emits one summary family from a HistSummary — the manifest
// form, which carries quantiles but no buckets.
func (e *expoWriter) summary(name string, s obs.HistSummary) {
	if !e.claim(name) {
		return
	}
	e.printf("# TYPE %s summary\n", name)
	for _, q := range [][2]any{{"0.5", s.P50}, {"0.9", s.P90}, {"0.99", s.P99}} {
		e.printf("%s{quantile=%q} %s\n", name, q[0], promFloat(q[1].(float64)))
	}
	e.printf("%s_sum %s\n", name, promFloat(s.Mean*float64(s.Count)))
	e.printf("%s_count %d\n", name, s.Count)
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// counterFamilies emits a counter map in sorted name order.
func (e *expoWriter) counterFamilies(counters map[string]int64) {
	for _, name := range sortedKeys(counters) {
		e.counter(PromName(name), counters[name])
	}
}

// gaugeFamilies emits a gauge map in sorted name order.
func (e *expoWriter) gaugeFamilies(gauges map[string]float64) {
	for _, name := range sortedKeys(gauges) {
		e.gauge(PromName(name), gauges[name])
	}
}

// histogramFamilies emits histogram snapshots (already name-sorted by
// Registry.SnapshotHistograms / the collector).
func (e *expoWriter) histogramFamilies(hists []obs.HistSnapshot) {
	for i := range hists {
		e.histogram(PromName(hists[i].Name), &hists[i].Hist)
	}
}

// WritePrometheus renders a registry and an optional sampler as one
// Prometheus text-exposition (v0.0.4) document: registry counters
// first, then the sampler's latest probe values as gauges, then the
// registry's histograms with cumulative buckets — each group in sorted
// name order, so the output for a given telemetry state is
// byte-deterministic. Either argument may be nil.
func WritePrometheus(w io.Writer, reg *obs.Registry, s *obs.Sampler) error {
	e := newExpoWriter(w)
	if reg != nil {
		e.counterFamilies(reg.Snapshot())
	}
	if s != nil {
		e.gaugeFamilies(s.Latest())
	}
	if reg != nil {
		e.histogramFamilies(reg.SnapshotHistograms())
	}
	return e.flush()
}

// WriteManifest renders a stored run manifest as an exposition
// document: the manifest's counters, its run metadata as an info
// metric plus an events counter, and its histogram summaries as
// Prometheus summaries (a sealed manifest carries quantiles, not
// buckets — see DESIGN.md §14). This is the `slowccreport -prom` path:
// the same artifact the report CLI verifies, reshaped for a Prometheus
// ecosystem (promtool, recording rules) without rerunning anything.
func WriteManifest(w io.Writer, m *obs.Manifest) error {
	e := newExpoWriter(w)
	e.info(PromName("run_info"), [][2]string{
		{"tool", m.Tool},
		{"seed", strconv.FormatInt(m.Seed, 10)},
		{"digest", m.Digest},
	})
	e.counter(PromName("run_events_total"), int64(m.Events))
	e.gauge(PromName("run_duration_seconds"), m.DurationS)
	e.counterFamilies(m.Counters)
	for _, name := range sortedKeys(m.Histograms) {
		e.summary(PromName(name), m.Histograms[name])
	}
	return e.flush()
}
