package main

import (
	"encoding/json"
	"time"

	"slowcc/internal/cc"
	"slowcc/internal/cc/cbr"
	"slowcc/internal/cc/tcp"
	"slowcc/internal/exp"
	"slowcc/internal/faults"
	"slowcc/internal/metrics"
	"slowcc/internal/netem"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// The layer replay rebuilds a sweep cell from this package through the
// layers' public calls — sim.New, topology.New/NewNet (with faults.New),
// AlgoSpec.Make, Engine.RunUntil and the metrics reducers — and times
// each call. It mirrors the cell bodies in internal/exp; the stream
// digest and event count it reproduces are checked against the ones the
// sweep reported, so the mirror cannot drift silently.

// Flow ids and defaults the exp scenarios use.
const (
	reverseFlowBase = 900
	cbrFlowID       = 990
	crossFlowBase   = 800
)

var epoch = time.Now()

// nanotime is a monotonic clock reading in nanoseconds.
func nanotime() int64 { return int64(time.Since(epoch)) }

// layerAcc accumulates one layer's wrapped calls.
type layerAcc struct {
	calls  int64
	selfNS int64
}

// tracer times wrapped handler calls as nested spans on one engine's
// goroutine: a span's self time is its duration minus its children's.
type tracer struct {
	stack   []int64 // child time accumulated by each open span
	cc      layerAcc
	ingress layerAcc
	topNS   int64 // total duration of outermost spans
}

// tracedHandler is a span around one handler: endpoint handlers count
// as cc, the ingress handlers a fabric returns count as netem.
type tracedHandler struct {
	t    *tracer
	acc  *layerAcc
	next netem.Handler
}

func (h *tracedHandler) Handle(p *netem.Packet) {
	t := h.t
	t.stack = append(t.stack, 0)
	t0 := nanotime()
	h.next.Handle(p)
	dur := nanotime() - t0
	n := len(t.stack) - 1
	child := t.stack[n]
	t.stack = t.stack[:n]
	h.acc.calls++
	h.acc.selfNS += dur - child
	if n > 0 {
		t.stack[n-1] += dur
	} else {
		t.topNS += dur
	}
}

// tracedFabric hands Make a fabric whose endpoint and ingress handlers
// are spans. Nothing in the program type-asserts handlers, so the
// wrapping leaves the event stream unchanged.
type tracedFabric struct {
	topology.Fabric
	t *tracer
}

func (f tracedFabric) endpoint(h netem.Handler) netem.Handler {
	return &tracedHandler{t: f.t, acc: &f.t.cc, next: h}
}

func (f tracedFabric) ingress(h netem.Handler) netem.Handler {
	return &tracedHandler{t: f.t, acc: &f.t.ingress, next: h}
}

func (f tracedFabric) PathLR(flow int, dst netem.Handler) netem.Handler {
	return f.ingress(f.Fabric.PathLR(flow, f.endpoint(dst)))
}

func (f tracedFabric) PathRL(flow int, dst netem.Handler) netem.Handler {
	return f.ingress(f.Fabric.PathRL(flow, f.endpoint(dst)))
}

func (f tracedFabric) PathLRDelay(flow int, dst netem.Handler, d sim.Time) netem.Handler {
	return f.ingress(f.Fabric.PathLRDelay(flow, f.endpoint(dst), d))
}

func (f tracedFabric) PathRLDelay(flow int, dst netem.Handler, d sim.Time) netem.Handler {
	return f.ingress(f.Fabric.PathRLDelay(flow, f.endpoint(dst), d))
}

func (f tracedFabric) ForwardSink(flow int, dst netem.Handler) {
	f.Fabric.ForwardSink(flow, f.endpoint(dst))
}

// cellReplay is one replayed cell's counts and timings.
type cellReplay struct {
	index  int
	events uint64
	digest uint64
	// Engine scheduler counters.
	scheduled, rearms, stops uint64
	// Bottleneck link, RED and pool counters (the links the sweep's
	// counter registry covers).
	arrivals, drops, early, forced, gets, reuses int64
	// Time per layer call.
	newNS, buildNS, makeNS, runNS, reduceNS int64
	tr                                      tracer
	// result is the cell's result, JSON-encoded for comparison with the
	// sweep's.
	result []byte
}

// replayer owns the wiring shared by one cell's replay.
type replayer struct {
	r    *cellReplay
	eng  *sim.Engine
	fab  topology.Fabric
	pool *netem.PacketPool
	dig  sim.StreamDigest
}

func (rp *replayer) newEngine(seed int64) {
	t0 := nanotime()
	rp.eng = sim.New(seed)
	rp.r.newNS += nanotime() - t0
	rp.eng.SetStreamDigest(&rp.dig)
}

func (rp *replayer) make(a exp.AlgoSpec, flow int) exp.Flow {
	t0 := nanotime()
	f := a.Make(rp.eng, tracedFabric{rp.fab, &rp.r.tr}, flow)
	rp.r.makeNS += nanotime() - t0
	return f
}

func (rp *replayer) runUntil(t sim.Time) {
	t0 := nanotime()
	rp.eng.RunUntil(t)
	rp.r.runNS += nanotime() - t0
}

// startAll, reverseTraffic and addCBR mirror the exp scenario helpers.
func (rp *replayer) startAll(flows []exp.Flow) {
	for _, f := range flows {
		rp.eng.At(0, f.Sender.Start)
	}
}

func (rp *replayer) reverseTraffic(n int) {
	for i := 0; i < n; i++ {
		flow := reverseFlowBase + i
		rcv := cc.NewAckReceiver(rp.eng, flow, nil)
		snd := tcp.NewSender(rp.eng, nil, tcp.Config{Flow: flow})
		snd.Pool, rcv.Pool = rp.pool, rp.pool
		snd.Out = rp.fab.PathRL(flow, rcv)
		rcv.Out = rp.fab.PathLR(flow, snd)
		rp.eng.At(0, snd.Start)
	}
}

func (rp *replayer) addCBR(peak float64, sched cbr.Schedule) {
	in := rp.fab.PathLR(cbrFlowID, netem.Sink{Pool: rp.pool})
	src := cbr.NewSource(rp.eng, in, cbrFlowID, peak, sched)
	src.Pool = rp.pool
	rp.eng.At(0, src.Start)
}

// finish records the engine's and the bottlenecks' counters.
func (rp *replayer) finish(links []*netem.Link, result any) {
	r := rp.r
	r.events, r.digest = rp.eng.Steps(), rp.dig.Sum()
	r.scheduled, r.rearms, r.stops = rp.eng.Scheduled(), rp.eng.Rearms(), rp.eng.Stops()
	for _, l := range links {
		r.arrivals += l.Stats.Arrivals
		r.drops += l.Stats.Drops
		if q, ok := l.Q.(*netem.RED); ok {
			r.early += q.EarlyDrops
			r.forced += q.ForcedDrops
		}
	}
	if rp.pool != nil {
		r.gets, r.reuses = rp.pool.Gets, rp.pool.Reuses
	}
	r.result, _ = json.Marshal(result)
}

// fig45Job is one (family, gamma) cell of exp.Fig45, in its order.
type fig45Job struct {
	family string
	gamma  int
	algo   exp.AlgoSpec
}

func fig45Jobs(cfg exp.Fig45Config) []fig45Job {
	families := []struct {
		name string
		mk   func(g int) exp.AlgoSpec
	}{
		{"TCP(1/g)", func(g int) exp.AlgoSpec { return exp.TCPAlgo(1 / float64(g)) }},
		{"RAP(1/g)", func(g int) exp.AlgoSpec { return exp.RAPAlgo(1 / float64(g)) }},
		{"SQRT(1/g)", func(g int) exp.AlgoSpec { return exp.SQRTAlgo(1 / float64(g)) }},
		{"TFRC(g)", func(g int) exp.AlgoSpec { return exp.TFRCAlgo(exp.TFRCOpts{K: g}) }},
		{"TFRC(g)+SC", func(g int) exp.AlgoSpec { return exp.TFRCAlgo(exp.TFRCOpts{K: g, Conservative: true}) }},
	}
	var jobs []fig45Job
	for _, f := range families {
		for g := 1; g <= cfg.MaxGamma; g *= 2 {
			jobs = append(jobs, fig45Job{f.name, g, f.mk(g)})
		}
	}
	return jobs
}

// replayFig45 mirrors exp.RunStabilization for one Fig45 cell.
func replayFig45(cfg exp.Fig45Config, job fig45Job, index int) *cellReplay {
	sc := cfg.Scenario
	if sc.Flows == 0 {
		sc.Flows = 20
	}
	if sc.Rate == 0 {
		sc.Rate = 10e6
	}
	if sc.CBRFraction == 0 {
		sc.CBRFraction = 0.5
	}
	if sc.ReverseFlows == 0 {
		sc.ReverseFlows = 2
	}
	r := &cellReplay{index: index}
	rp := &replayer{r: r}
	rp.newEngine(sc.Seed)
	t0 := nanotime()
	d := topology.New(rp.eng, topology.Config{Rate: sc.Rate, Seed: sc.Seed})
	r.buildNS = nanotime() - t0
	rp.fab, rp.pool = d, d.Pool
	rtt := d.Cfg.PropRTT()

	mon := metrics.NewLossMonitor(10 * rtt)
	mon.EnsureHorizon(sc.End)
	d.LR.AddTap(mon.Tap())
	flows := make([]exp.Flow, sc.Flows)
	for i := range flows {
		flows[i] = rp.make(job.algo, i+1)
	}
	rp.startAll(flows)
	rp.reverseTraffic(sc.ReverseFlows)
	rp.addCBR(sc.CBRFraction*sc.Rate, cbr.Steps{
		At:     []sim.Time{0, sc.OffAt, sc.OnAt},
		Levels: []float64{1, 0, 1},
	})
	rp.runUntil(sc.End)

	t0 = nanotime()
	steady := mon.RateOver(sc.OffAt*2/3, sc.OffAt)
	res := exp.StabilizationResult{Algo: job.algo.Name, Steady: steady,
		Stab: mon.Stabilization(sc.OnAt, sc.End, steady, rtt)}
	from := max(sc.OffAt-10, 0)
	for i := int(from / mon.Width); i < mon.Bins(); i++ {
		res.LossTrace = append(res.LossTrace, exp.TimePoint{T: sim.Time(i) * mon.Width, V: mon.Rate(i)})
	}
	r.reduceNS = nanotime() - t0
	rp.finish([]*netem.Link{d.LR, d.RL}, exp.Fig45Point{Family: job.family, Gamma: job.gamma, Result: res})
	return r
}

// matrixJob is one cell of exp.Matrix, in its order.
type matrixJob struct {
	topo, cond string
	a, b       exp.AlgoSpec
}

// fillMatrix applies exp.MatrixConfig's documented defaults.
func fillMatrix(c exp.MatrixConfig) exp.MatrixConfig {
	if len(c.Algos) == 0 {
		c.Algos = exp.DefaultMatrixAlgos()
	}
	if len(c.Conditions) == 0 {
		c.Conditions = []string{exp.CondStatic, exp.CondOscillating, exp.CondFaulted}
	}
	if len(c.Topologies) == 0 {
		c.Topologies = []string{exp.TopoDumbbell, exp.TopoParkingLot}
	}
	def := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	if c.Hops == 0 {
		c.Hops = 3
	}
	def(&c.Rate, 10e6)
	if c.FlowsPerSide == 0 {
		c.FlowsPerSide = 1
	}
	if c.ReverseFlows == 0 {
		c.ReverseFlows = 1
	}
	def(&c.CBRPeak, c.Rate/2)
	def(&c.Period, 2)
	def(&c.CrossRate, c.Rate/4)
	def(&c.OutageDur, 1)
	def(&c.Warmup, 10)
	def(&c.Measure, 40)
	def(&c.SmoothBin, 1)
	return c
}

func matrixJobs(cfg exp.MatrixConfig) []matrixJob {
	var jobs []matrixJob
	for _, t := range cfg.Topologies {
		for _, cond := range cfg.Conditions {
			for _, a := range cfg.Algos {
				for _, b := range cfg.Algos {
					jobs = append(jobs, matrixJob{t, cond, a, b})
				}
			}
		}
	}
	return jobs
}

// replayMatrix mirrors exp's runMatrixCell.
func replayMatrix(cfg exp.MatrixConfig, j matrixJob, index int) *cellReplay {
	r := &cellReplay{index: index}
	rp := &replayer{r: r}
	seed := cfg.Seed
	rp.newEngine(seed)
	var inj *faults.Injector
	if j.cond == exp.CondFaulted {
		inj = faults.New(rp.eng, faults.Config{Seed: seed, Windows: []faults.Window{
			{At: cfg.Warmup + cfg.Measure/3, Dur: cfg.OutageDur}}})
	}
	var links []*netem.Link
	var bottleneck *netem.Link
	t0 := nanotime()
	if j.topo == exp.TopoParkingLot {
		hops := make([]topology.Hop, cfg.Hops)
		for i := range hops {
			hops[i] = topology.Hop{Rate: cfg.Rate}
		}
		if inj != nil {
			hops[cfg.Hops/2].Fault = inj
		}
		n := topology.NewNet(rp.eng, topology.NetConfig{Hops: hops, Seed: seed})
		r.buildNS = nanotime() - t0
		rp.fab, rp.pool, bottleneck = n, n.Pool, n.Fwd[0]
		links = append(append(links, n.Fwd...), n.Rev...)
		for m := 1; m < cfg.Hops; m++ {
			flow := crossFlowBase + m
			in := n.PathFwd(flow, m, m+1, netem.Sink{Pool: n.Pool}, n.Cfg.AccessDelay)
			src := cbr.NewSource(rp.eng, in, flow, cfg.CrossRate, nil)
			src.Pool = n.Pool
			rp.eng.At(0, src.Start)
		}
	} else {
		tc := topology.Config{Rate: cfg.Rate, Seed: seed}
		if inj != nil {
			tc.Fault = inj
		}
		d := topology.New(rp.eng, tc)
		r.buildNS = nanotime() - t0
		rp.fab, rp.pool, bottleneck = d, d.Pool, d.LR
		links = []*netem.Link{d.LR, d.RL}
	}

	F := cfg.FlowsPerSide
	flows := make([]exp.Flow, 0, 2*F)
	for i := 0; i < F; i++ {
		flows = append(flows, rp.make(j.a, i+1))
	}
	for i := 0; i < F; i++ {
		flows = append(flows, rp.make(j.b, F+i+1))
	}
	meters := make([]*metrics.Meter, len(flows))
	for i, f := range flows {
		meters[i] = metrics.NewMeter(rp.eng, cfg.SmoothBin, f.RecvBytes)
	}
	rp.startAll(flows)
	rp.reverseTraffic(cfg.ReverseFlows)
	if j.cond == exp.CondOscillating {
		rp.addCBR(cfg.CBRPeak, cbr.SquareWave{Period: cfg.Period})
	}

	rp.runUntil(cfg.Warmup)
	base := make([]int64, len(flows))
	for i, f := range flows {
		base[i] = f.RecvBytes()
	}
	baseLink := bottleneck.Stats.Bytes
	rp.runUntil(cfg.Warmup + cfg.Measure)

	t0 = nanotime()
	perBps := make([]float64, len(flows))
	for i, f := range flows {
		perBps[i] = float64(f.RecvBytes()-base[i]) * 8 / float64(cfg.Measure)
	}
	skip := int(cfg.Warmup / cfg.SmoothBin)
	cell := exp.MatrixCell{
		Topology:    j.topo,
		Condition:   j.cond,
		A:           j.a.Name,
		B:           j.b.Name,
		AMbps:       mean(perBps[:F]) / 1e6,
		BMbps:       mean(perBps[F:]) / 1e6,
		Jain:        metrics.JainIndex(perBps),
		SmoothA:     meanCoV(meters[:F], skip),
		SmoothB:     meanCoV(meters[F:], skip),
		Utilization: metrics.Utilization(bottleneck.Stats.Bytes-baseLink, cfg.Rate, cfg.Measure),
	}
	if cell.BMbps > 0 {
		cell.Ratio = cell.AMbps / cell.BMbps
	}
	r.reduceNS = nanotime() - t0
	rp.finish(links, cell)
	return r
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func meanCoV(ms []*metrics.Meter, skip int) float64 {
	var covs []float64
	for _, m := range ms {
		rs := m.Rates()
		if skip < len(rs) {
			rs = rs[skip:]
		} else {
			rs = nil
		}
		covs = append(covs, metrics.ComputeSmoothness(rs).CoV)
	}
	return mean(covs)
}
