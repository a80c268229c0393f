package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"slowcc/internal/exp"
	"slowcc/internal/obs"
	"slowcc/internal/store"
)

// sweepSink records one sweep's supervision events, stamped on arrival
// with seconds since the sweep started, and each finished cell's stats.
type sweepSink struct {
	mu     sync.Mutex
	t0     time.Time
	events []stampedEvent
	stats  map[int]obs.CellStats
}

type stampedEvent struct {
	obs.SweepEvent
	at float64
}

func newSweepSink() *sweepSink {
	return &sweepSink{t0: time.Now(), stats: map[int]obs.CellStats{}}
}

func (s *sweepSink) SweepEvent(e obs.SweepEvent) {
	at := time.Since(s.t0).Seconds()
	s.mu.Lock()
	s.events = append(s.events, stampedEvent{e, at})
	s.mu.Unlock()
}

func (s *sweepSink) CellStats(st obs.CellStats) {
	s.mu.Lock()
	s.stats[st.Cell] = st
	s.mu.Unlock()
}

// traced is one sweep run with the sink installed.
type traced struct {
	sweep *sweepResult
	sink  *sweepSink
	end   float64 // seconds from sink creation until the sweep returned
}

// tracedSweep runs one sweep with the supervision sink installed.
func tracedSweep(wl workload, p prepared, seed int64, dir string) (*traced, error) {
	if err := wl.prepareSweep(p, seed, dir); err != nil {
		return nil, err
	}
	sink := newSweepSink()
	exp.SetSweepProgress(sink)
	r, err := wl.sweep(p, seed, dir)
	exp.SetSweepProgress(nil)
	if err != nil {
		return nil, err
	}
	t := &traced{sweep: r, sink: sink, end: time.Since(sink.t0).Seconds()}
	r.events, r.eventsMeasured = t.computedEvents(), true
	return t, nil
}

// computed lists the cells the sweep ran (not served from the store),
// in index order.
func (t *traced) computed() []int {
	var out []int
	for _, e := range t.sink.events {
		if e.Kind == obs.SweepDone {
			out = append(out, e.Cell)
		}
	}
	sort.Ints(out)
	return out
}

// computedEvents is the number of events the sweep executed.
func (t *traced) computedEvents() uint64 {
	var n uint64
	for _, i := range t.computed() {
		n += t.sink.stats[i].Events
	}
	return n
}

// expMetrics derives the supervision-layer metrics from the sink.
func (t *traced) expMetrics(m map[string]metric) {
	var cellMS []float64
	var retries, degraded, cached int
	lastFinish := map[int]float64{}
	busy := map[int]float64{}
	for _, e := range t.sink.events {
		switch e.Kind {
		case obs.SweepDone:
			cellMS = append(cellMS, e.DurMS)
			busy[e.Worker] += e.DurMS / 1e3
		case obs.SweepRetry:
			retries++
		case obs.SweepDegraded:
			degraded++
		case obs.SweepCached:
			cached++
		}
		switch e.Kind {
		case obs.SweepDone, obs.SweepDegraded, obs.SweepCached:
			lastFinish[e.Worker] = max(lastFinish[e.Worker], e.at)
		}
	}
	n := min(runtime.GOMAXPROCS(0), t.sweep.cells)
	firstIdle := t.end
	var busySum, outside float64
	for w := 0; w < n; w++ {
		firstIdle = min(firstIdle, lastFinish[w])
		busySum += busy[w]
		outside += lastFinish[w] - busy[w]
	}
	m["exp.cell_ms.p50"] = metric{quantile(cellMS, 0.5), "ms"}
	m["exp.cell_ms.max"] = metric{quantile(cellMS, 1), "ms"}
	m["exp.busy_frac"] = metric{busySum / (float64(n) * t.end), "frac"}
	m["exp.tail_s"] = metric{t.end - firstIdle, "s"}
	m["exp.outside_cell_s"] = metric{outside, "s"}
	m["exp.retries"] = metric{float64(retries), "count"}
	m["exp.degraded"] = metric{float64(degraded), "count"}
	m["exp.cached"] = metric{float64(cached), "count"}
}

// runTraced is the --trace 1 run on the run's first seed: one sweep with
// tracing off as the baseline for trace.overhead_s, one sweep with the
// sink installed, the layer replay of the cells that sweep computed, and,
// for matrix-resume, the store replay.
func runTraced(wl workload, seed int64, pin *pinned, dir string, w io.Writer) (*result, error) {
	seeds := []int64{seed}
	p, err := wl.setup(seeds, dir)
	if err != nil {
		return nil, err
	}
	pins := map[int64]*pinned{seed: pin}
	if err := discoverPins(wl, p, seeds, pins, dir); err != nil {
		return nil, err
	}
	chk := &checker{wl: wl, w: w}
	if err := wl.prepareSweep(p, seed, dir); err != nil {
		return nil, err
	}
	runtime.GC()
	plain, err := wl.sweep(p, seed, dir)
	if err != nil {
		return nil, err
	}
	chk.check(plain, pins[seed])
	runtime.GC()
	tr, err := tracedSweep(wl, p, seed, dir)
	if err != nil {
		return nil, err
	}
	chk.check(tr.sweep, pins[seed])

	m := map[string]metric{}
	tr.expMetrics(m)
	m["trace.overhead_s"] = metric{tr.sweep.seconds - plain.seconds, "s"}

	cells := tr.computed()
	reps := replayCells(wl, tr.sweep, cells)
	chk.attempted += len(reps)
	for _, r := range reps {
		if msg := verifyReplay(r, tr); msg != "" {
			fmt.Fprintf(w, "# FAIL replay cell %d: %s\n", r.index, msg)
			chk.failed++
		}
		fmt.Fprintf(w, "# cell %d events=%d digest=%016x cc_calls=%d ingress_calls=%d\n",
			r.index, r.events, r.digest, r.tr.cc.calls, r.tr.ingress.calls)
	}
	layerMetrics(reps, m)

	// Fig45 leaves the store unwired (its bypass): its store metrics
	// read zero.
	sr := &storeReplay{}
	if wl.name == "matrix-resume" {
		if sr, err = replayStore(tr.sweep.entries, filepath.Join(dir, "store-replay")); err != nil {
			return nil, err
		}
		chk.attempted += sr.entries
		if sr.mismatches > 0 {
			fmt.Fprintf(w, "# FAIL store replay: %d entries read back differently\n", sr.mismatches)
			chk.failed += sr.mismatches
		}
	}
	m["store.open_s"] = metric{tr.sweep.openS, "s"}
	m["store.close_s"] = metric{tr.sweep.closeS, "s"}
	m["store.put_us.p50"] = metric{quantile(sr.putUS, 0.5), "us"}
	m["store.put_us.p99"] = metric{quantile(sr.putUS, 0.99), "us"}
	m["store.get_us.p50"] = metric{quantile(sr.getUS, 0.5), "us"}
	m["store.hits"] = metric{float64(tr.sweep.hits), "count"}
	m["store.misses"] = metric{float64(tr.sweep.misses), "count"}
	m["store.journal_bytes"] = metric{float64(sr.journalBytes), "bytes"}
	m["failed_frac"] = metric{float64(chk.failed) / float64(chk.attempted), "frac"}
	return &result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m}, nil
}

// replayCells replays the given cells of a finished sweep on the same
// number of workers the sweep used.
func replayCells(wl workload, sw *sweepResult, cells []int) []*cellReplay {
	out := make([]*cellReplay, len(cells))
	var one func(i int) *cellReplay
	if wl.name == "fig45" {
		jobs := fig45Jobs(sw.fig45Config)
		one = func(i int) *cellReplay { return replayFig45(sw.fig45Config, jobs[i], i) }
	} else {
		cfg := fillMatrix(sw.matrixConfig)
		jobs := matrixJobs(cfg)
		one = func(i int) *cellReplay { return replayMatrix(cfg, jobs[i], i) }
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				out[k] = one(cells[k])
			}
		}()
	}
	for k := range cells {
		next <- k
	}
	close(next)
	wg.Wait()
	return out
}

// verifyReplay compares a replayed cell with what the sweep reported
// for it: stream digest, event count, counters and result. It returns
// "" when they all agree.
func verifyReplay(r *cellReplay, tr *traced) string {
	st, ok := tr.sink.stats[r.index]
	if !ok {
		return "sweep reported no stats"
	}
	if r.digest != st.Digest || r.events != st.Events {
		return fmt.Sprintf("stream digest %016x over %d events, sweep reported %016x over %d",
			r.digest, r.events, st.Digest, st.Events)
	}
	var arrivals, drops, early, forced int64
	for k, v := range st.Counters {
		switch {
		case strings.HasPrefix(k, "link.") && strings.HasSuffix(k, ".arrivals"):
			arrivals += v
		case strings.HasPrefix(k, "link.") && strings.HasSuffix(k, ".drops"):
			drops += v
		case strings.HasPrefix(k, "red.") && strings.HasSuffix(k, ".early_drops"):
			early += v
		case strings.HasPrefix(k, "red.") && strings.HasSuffix(k, ".forced_drops"):
			forced += v
		}
	}
	c := st.Counters
	replayed := []int64{int64(r.scheduled), int64(r.rearms), int64(r.stops), r.arrivals, r.drops, r.early, r.forced, r.gets, r.reuses}
	reported := []int64{c["engine.scheduled"], c["engine.rearms"], c["engine.stops"], arrivals, drops, early, forced, c["pool.gets"], c["pool.reuses"]}
	for i := range replayed {
		if replayed[i] != reported[i] {
			return fmt.Sprintf("counters %v, sweep reported %v", replayed, reported)
		}
	}
	var res []byte
	if tr.sweep.fig45 != nil {
		res, _ = json.Marshal(tr.sweep.fig45[r.index])
	} else {
		res, _ = json.Marshal(tr.sweep.matrix[r.index])
	}
	if !bytes.Equal(res, r.result) {
		return fmt.Sprintf("result %s, sweep returned %s", r.result, res)
	}
	return ""
}

// layerMetrics aggregates the replayed cells into the sim, netem,
// topology, cc and metrics per-layer metrics.
func layerMetrics(reps []*cellReplay, m map[string]metric) {
	var events, scheduled, rearms, stops uint64
	var arrivals, drops, early, forced, gets, reuses int64
	var runNS, topNS int64
	var cc, ingress layerAcc
	var newUS, buildUS, makeUS, reduceUS []float64
	for _, r := range reps {
		events += r.events
		scheduled += r.scheduled
		rearms += r.rearms
		stops += r.stops
		arrivals += r.arrivals
		drops += r.drops
		early += r.early
		forced += r.forced
		gets += r.gets
		reuses += r.reuses
		runNS += r.runNS
		topNS += r.tr.topNS
		cc.calls += r.tr.cc.calls
		cc.selfNS += r.tr.cc.selfNS
		ingress.calls += r.tr.ingress.calls
		ingress.selfNS += r.tr.ingress.selfNS
		newUS = append(newUS, float64(r.newNS)/1e3)
		buildUS = append(buildUS, float64(r.buildNS)/1e3)
		makeUS = append(makeUS, float64(r.makeNS)/1e3)
		reduceUS = append(reduceUS, float64(r.reduceNS)/1e3)
	}
	perCall := func(a layerAcc) float64 {
		if a.calls == 0 {
			return 0
		}
		return float64(a.selfNS) / float64(a.calls)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["sim.events"] = metric{float64(events), "count"}
	m["sim.scheduled"] = metric{float64(scheduled), "count"}
	m["sim.rearms"] = metric{float64(rearms), "count"}
	m["sim.stops"] = metric{float64(stops), "count"}
	m["sim.new_us"] = metric{median(newUS), "us"}
	m["sim.run_ns_per_event"] = metric{ratio(float64(runNS-topNS), float64(events)), "ns"}
	m["netem.ingress_calls"] = metric{float64(ingress.calls), "count"}
	m["netem.ingress_self_ns"] = metric{perCall(ingress), "ns"}
	m["netem.arrivals"] = metric{float64(arrivals), "count"}
	m["netem.drops"] = metric{float64(drops), "count"}
	m["netem.red_early_drops"] = metric{float64(early), "count"}
	m["netem.red_forced_drops"] = metric{float64(forced), "count"}
	m["netem.pool_reuse_frac"] = metric{ratio(float64(reuses), float64(gets)), "frac"}
	m["topology.build_us"] = metric{median(buildUS), "us"}
	m["cc.make_us"] = metric{median(makeUS), "us"}
	m["cc.handler_calls"] = metric{float64(cc.calls), "count"}
	m["cc.handler_self_ns"] = metric{perCall(cc), "ns"}
	m["metrics.reduce_us"] = metric{median(reduceUS), "us"}
}

// storeReplay is the store layer timed on a sweep's real entries.
type storeReplay struct {
	entries      int
	mismatches   int
	putUS, getUS []float64
	journalBytes int64
}

// replayStore re-Puts entries into a fresh store in dir and Gets each one
// back, timing every call.
func replayStore(entries []*store.Entry, dir string) (*storeReplay, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	sr := &storeReplay{entries: len(entries)}
	for _, e := range entries {
		t0 := time.Now()
		if err := st.Put(*e); err != nil {
			st.Close()
			return nil, err
		}
		sr.putUS = append(sr.putUS, float64(time.Since(t0))/1e3)
	}
	if fi, err := os.Stat(filepath.Join(dir, "journal.bin")); err == nil {
		sr.journalBytes = fi.Size()
	}
	for _, e := range entries {
		t0 := time.Now()
		got, ok := st.Get(e.Key)
		sr.getUS = append(sr.getUS, float64(time.Since(t0))/1e3)
		if ok == e.Degraded || ok && !bytes.Equal(got.Result, e.Result) {
			sr.mismatches++
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return sr, nil
}
