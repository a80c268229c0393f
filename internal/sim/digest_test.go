package sim

import (
	"math/rand"
	"testing"
)

// digestWorkload schedules a deterministic mixed workload through at —
// self-rescheduling cadences at coprime periods plus a burst of
// random-instant timers — busy enough to exercise bucket rotation in
// the calendar queue and sibling ordering in the reference heap. Run it
// to t=2.
func digestWorkload(at func(Time, func()), now func() Time, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 8; i++ {
		period := 0.001 * float64(i+1)
		var tick func()
		tick = func() { at(now()+period, tick) }
		at(now()+period, tick)
	}
	for i := 0; i < 64; i++ {
		at(rng.Float64()*2, func() {})
	}
}

func TestStreamDigestEmptyAndReset(t *testing.T) {
	var d StreamDigest
	if d.Sum() != fnvOffset64 {
		t.Fatalf("empty digest Sum = %#x, want FNV offset basis %#x", d.Sum(), uint64(fnvOffset64))
	}
	if d.Events() != 0 {
		t.Fatalf("empty digest Events = %d", d.Events())
	}
	d.OnEvent(0, 1, 1)
	if d.Events() != 1 || d.Sum() == fnvOffset64 {
		t.Fatalf("after one fold: events=%d sum=%#x", d.Events(), d.Sum())
	}
	d.Reset()
	if d.Sum() != fnvOffset64 || d.Events() != 0 {
		t.Fatalf("Reset did not restore empty state: events=%d sum=%#x", d.Events(), d.Sum())
	}
}

// The digest must distinguish every component of the (at, seq, kind)
// tuple: two streams that differ in any one of them — or only in event
// order — hash differently.
func TestStreamDigestDistinguishesTupleComponents(t *testing.T) {
	sum := func(tuples [][3]float64) uint64 {
		var d StreamDigest
		for _, tp := range tuples {
			d.OnEvent(Time(tp[0]), Time(tp[1]), uint64(tp[2]))
		}
		return d.Sum()
	}
	base := sum([][3]float64{{0, 1, 1}, {1, 2, 2}})
	for name, alt := range map[string][][3]float64{
		"at differs":    {{0, 1, 1}, {1, 2.5, 2}},
		"seq differs":   {{0, 1, 1}, {1, 2, 3}},
		"kind differs":  {{0, 1, 1}, {2, 2, 2}}, // same at/seq, clock did not advance
		"order differs": {{1, 2, 2}, {0, 1, 1}},
		"one short":     {{0, 1, 1}},
	} {
		if sum(alt) == base {
			t.Errorf("%s: digest collided with base stream", name)
		}
	}
	if sum([][3]float64{{0, 1, 1}, {1, 2, 2}}) != base {
		t.Fatal("identical streams digested differently")
	}
}

// Identical schedules must digest identically across queue kinds: the
// engine's calendar queue and the reference heap (refheap_test.go)
// promise the same (at, seq) total order, and the digest fingerprints
// that stream itself, which is what lets CI compare two runs by one hex
// string instead of two recorded traces.
func TestStreamDigestMatchesAcrossQueueKinds(t *testing.T) {
	eng := New(7)
	var d StreamDigest
	eng.SetStreamDigest(&d)
	digestWorkload(func(t Time, fn func()) { eng.At(t, fn) }, eng.Now, 7)
	eng.RunUntil(2)
	if d.Events() != eng.Steps() {
		t.Fatalf("digest saw %d events, engine executed %d", d.Events(), eng.Steps())
	}

	model := &refQueue{dig: &StreamDigest{}}
	digestWorkload(func(t Time, fn func()) { model.At(t, fn) }, func() Time { return model.now }, 7)
	model.RunUntil(2)
	if d.Events() != model.dig.Events() {
		t.Fatalf("event counts diverged: engine %d, reference %d", d.Events(), model.dig.Events())
	}
	if d.Sum() != model.dig.Sum() {
		t.Fatalf("stream digests diverged: engine %#x, reference %#x", d.Sum(), model.dig.Sum())
	}
}

// A wired digest must not allocate: it rides the hot path of every
// executed event.
func TestStreamDigestZeroAlloc(t *testing.T) {
	var d StreamDigest
	var at Time
	var seq uint64
	allocs := testing.AllocsPerRun(1000, func() {
		prev := at
		at += 0.001
		seq++
		d.OnEvent(prev, at, seq)
	})
	if allocs != 0 {
		t.Fatalf("StreamDigest.OnEvent allocates %.1f per event, want 0", allocs)
	}
}

// The disabled path is the observer slot's one comparison: running with
// no digest installed must stay allocation-free.
func TestStreamDigestDisabledZeroAlloc(t *testing.T) {
	eng := New(3)
	var fn func(any)
	fn = func(arg any) { eng.AfterFunc(0.001, fn, arg) }
	eng.AfterFunc(0.001, fn, nil)
	eng.RunUntil(1) // warm the timer free list
	var horizon Time = 1
	allocs := testing.AllocsPerRun(100, func() {
		horizon += 0.1
		eng.RunUntil(horizon)
	})
	if allocs != 0 {
		t.Fatalf("digest-off run allocates %.1f per leg, want 0", allocs)
	}
}
