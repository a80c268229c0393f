package netem_test

// External test package: obs imports netem, so pinning the cost of the
// wired-but-disabled obs layer on the link hot path has to live outside
// package netem.

import (
	"testing"

	"slowcc/internal/netem"
	"slowcc/internal/obs"
	"slowcc/internal/sim"
)

// Steady-state pooled forwarding with the full obs layer wired —
// counters registered over the link, pool, and engine, and a disabled
// sampler in the observer slot — must still allocate nothing per packet.
// The registry holds read closures only (nothing per event), and the
// disabled sampler is one comparison per event.
func TestAllocsLinkForwardZeroWithObsWired(t *testing.T) {
	eng := sim.New(1)
	pool := &netem.PacketPool{}
	l := netem.NewLink(eng, 10e6, 0.001, netem.NewDropTail(64), netem.Sink{Pool: pool})
	l.Pool = pool

	var reg obs.Registry
	reg.AddEngine(eng)
	reg.AddLink("lr", l)
	reg.AddPool(pool)
	smp := obs.NewSampler(0) // disabled
	smp.Install(eng)

	send := func() {
		p := pool.Get()
		p.Kind = netem.Data
		p.Size = 1000
		l.Send(p)
	}
	for i := 0; i < 64; i++ {
		send() // warm the pool and the engine's timer free list
	}
	eng.RunUntil(1)
	avg := testing.AllocsPerRun(200, func() {
		send()
		eng.RunUntil(eng.Now() + 0.01)
	})
	if avg != 0 {
		t.Fatalf("obs-wired link forwarding allocates %v times per packet, want 0", avg)
	}
	if len(smp.Samples()) != 0 {
		t.Fatalf("disabled sampler recorded %d samples", len(smp.Samples()))
	}
	// The registry still reads the real traffic afterwards.
	snap := reg.Snapshot()
	if snap["link.lr.arrivals"] == 0 || snap["pool.reuses"] == 0 {
		t.Fatalf("registry reads nothing: %v", snap)
	}
}
