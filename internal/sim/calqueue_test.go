// Edge-case coverage for the calendar queue: same-instant FIFO across
// ring rotation, handle operations on overflow residents, rejection
// parity across the scheduling entry points, and a randomized
// differential against the reference heap (refheap_test.go) over a
// million mixed operations. These are the white-box half of the
// exactness argument in calqueue.go; the macro-level half (pinned event
// streams) lives in the top-level pinned_test.go.
package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// queuedInCalendar counts live timers actually resident in the calendar
// queue's buckets and overflow, for white-box leak assertions.
func queuedInCalendar(e *Engine) int {
	n := 0
	for i := range e.cq.b {
		for tm := e.cq.b[i].head; tm != nil; tm = tm.next {
			n++
		}
	}
	n += len(e.cq.overflow) - e.cq.ohead
	return n
}

// Same-instant groups must fire in schedule order even when their shared
// deadline is many ring revolutions away: the groups are scheduled
// interleaved (round-robin across deadlines), land in the overflow,
// migrate into buckets as the cursor wraps, and must still come out in
// exact (at, seq) order.
func TestCalendarSameInstantFIFOAcrossRotation(t *testing.T) {
	e := New(3)
	year := e.cq.width * Time(len(e.cq.b))

	// 64 distinct deadlines spread over ~24 ring revolutions, offset so
	// none sits on a bucket boundary.
	var deadlines []Time
	for k := 0; k < 64; k++ {
		deadlines = append(deadlines, Time(k)*year*0.37+year/3)
	}

	type ev struct {
		at Time
		id int
	}
	var want []ev
	var got []int
	id := 0
	for round := 0; round < 3; round++ {
		for _, d := range deadlines {
			myid := id
			id++
			e.At(d, func() { got = append(got, myid) })
			want = append(want, ev{d, myid})
		}
	}
	// Stable sort by deadline keeps schedule order within each
	// same-instant group — exactly the (at, seq) order the engine owes.
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })

	e.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, scheduled %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i].id {
			t.Fatalf("event %d: fired id %d, want %d (deadline %v)", i, got[i], want[i].id, want[i].at)
		}
	}
	if n := queuedInCalendar(e); n != 0 {
		t.Fatalf("%d timers left in calendar structures after drain", n)
	}
}

// A peek can advance the sweep cursor across empty buckets; a later
// insert behind the cursor must rewind it, or the new event would be
// skipped until a full fruitless revolution forced the direct scan.
func TestCalendarRewindOnInsertAfterPeek(t *testing.T) {
	e := New(1)
	w := e.cq.width
	var got []int
	e.At(10*w+w/2, func() { got = append(got, 1) })
	if tm := e.cq.findMin(); tm == nil {
		t.Fatal("findMin returned nil with one timer queued")
	}
	// The cursor now sits on epoch 10; this lands on epoch 2, behind it.
	e.At(2*w+w/2, func() { got = append(got, 0) })
	if e.cq.curEpoch > 2 {
		t.Fatalf("cursor not rewound: curEpoch %d after insert at epoch 2", e.cq.curEpoch)
	}
	e.Run()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("fired order %v, want [0 1]", got)
	}
}

// Stop and ResetAt on timers resident in the sorted overflow slice: the
// slice must stay sorted and index-consistent, a stopped overflow timer
// must never fire, and a re-armed one must fire at its new time.
func TestCalendarStopResetOverflowTimer(t *testing.T) {
	e := New(1)
	var got []string
	a := e.At(1e6, func() { got = append(got, "a") })
	b := e.At(2e6, func() { got = append(got, "b") })
	c := e.At(1.5e6, func() { got = append(got, "c") })
	for _, tc := range []struct {
		name string
		tm   *Timer
	}{{"a", a}, {"b", b}, {"c", c}} {
		if tc.tm.bkt != bktOverflow {
			t.Fatalf("timer %s: bkt %d, want overflow (%d)", tc.name, tc.tm.bkt, bktOverflow)
		}
	}
	// The overflow is sorted (a, c, b); remove from the middle.
	if !c.Stop() {
		t.Fatal("Stop on a pending overflow timer returned false")
	}
	if c.Pending() {
		t.Fatal("stopped overflow timer still Pending")
	}
	if c.Stop() {
		t.Fatal("second Stop returned true")
	}
	if n := queuedInCalendar(e); n != 2 {
		t.Fatalf("%d timers queued after stopping one of three", n)
	}
	// Re-arm one overflow resident to the near future — within one ring
	// revolution, so it leaves the overflow for a bucket — and the other
	// within the overflow.
	b = e.ResetAt(b, 0.01, func() { got = append(got, "b2") })
	if b.bkt == bktOverflow {
		t.Fatal("timer re-armed to the near future still in overflow")
	}
	a = e.ResetAt(a, 3e6, func() { got = append(got, "a2") })
	if a.bkt != bktOverflow {
		t.Fatal("timer re-armed far ahead left the overflow")
	}
	e.Run()
	if len(got) != 2 || got[0] != "b2" || got[1] != "a2" {
		t.Fatalf("fired %v, want [b2 a2]", got)
	}
	if got := e.Now(); got != 3e6 {
		t.Fatalf("clock at %v after drain, want 3e6", got)
	}
}

// Every scheduling entry point must reject exactly the same invalid
// timestamps, on the shared validate path: NaN, ±Inf, and the past all
// panic; a huge-but-finite timestamp is accepted (the calendar parks it
// in the overflow rather than overflowing the epoch arithmetic).
func TestNonFiniteRejectionParity(t *testing.T) {
	panics := func(fn func()) (p bool) {
		defer func() { p = recover() != nil }()
		fn()
		return
	}
	for _, bad := range []Time{math.NaN(), math.Inf(1), math.Inf(-1), -0.5} {
		e := New(1)
		if !panics(func() { e.At(bad, func() {}) }) {
			t.Errorf("At(%v) did not panic", bad)
		}
		e2 := New(1)
		if !panics(func() { e2.AtFunc(bad, callFunc, func() {}) }) {
			t.Errorf("AtFunc(%v) did not panic", bad)
		}
		e3 := New(1)
		tm := e3.At(1, func() {})
		if !panics(func() { e3.ResetAt(tm, bad, func() {}) }) {
			t.Errorf("ResetAt(%v) did not panic", bad)
		}
	}
	e := New(1)
	fired := false
	if panics(func() { e.At(1e308, func() { fired = true }) }) {
		t.Error("At(1e308) panicked; huge finite times are valid")
	}
	e.Run()
	if !fired {
		t.Error("event at huge finite time never fired")
	}
}

// Randomized differential test: the engine and the reference heap model
// are driven through the same ~1e6 mixed operations (schedules at mixed
// time scales, in-place re-arms, stops, and event pops) and must agree
// on every observable: the exact fired sequence, Stop results, the
// pending count, and the final clock. The heap is the oracle; any
// divergence is an ordering bug in the calendar queue.
func TestCalendarVsHeapRandomizedOps(t *testing.T) {
	const ops = 1_000_000
	rng := rand.New(rand.NewSource(42))

	cal := New(7)
	heap := &refQueue{}
	var firedCal, firedHeap []int32

	// Parallel handle arrays: hCal[i] and hHeap[i] are the same logical
	// timer on the engine and the model.
	var hCal []*Timer
	var hHeap []*refTimer
	nextID := int32(0)

	// delay picks a duration from the schedule's mixed scales: ties (0),
	// sub-bucket, a few buckets, seconds, and the rare far-future jump
	// that exercises the overflow slice and migration.
	delay := func() Time {
		switch r := rng.Float64(); {
		case r < 0.10:
			return 0
		case r < 0.45:
			return rng.Float64() * 1e-4
		case r < 0.80:
			return rng.Float64() * 0.05
		case r < 0.995:
			return 1 + rng.Float64()*10
		default:
			return rng.Float64() * 1e6
		}
	}
	schedule := func(d Time) {
		id := nextID
		nextID++
		hCal = append(hCal, cal.At(cal.Now()+d, func() { firedCal = append(firedCal, id) }))
		hHeap = append(hHeap, heap.At(heap.now+d, func() { firedHeap = append(firedHeap, id) }))
	}

	for op := 0; op < ops; op++ {
		switch r := rng.Float64(); {
		case r < 0.45:
			schedule(delay())
		case r < 0.60 && len(hCal) > 0:
			// Re-arm a random handle in place; it may be pending, fired,
			// or stopped — all three must behave identically.
			i := rng.Intn(len(hCal))
			d := delay()
			id := nextID
			nextID++
			hCal[i] = cal.ResetAt(hCal[i], cal.Now()+d, func() { firedCal = append(firedCal, id) })
			hHeap[i] = heap.ResetAt(hHeap[i], heap.now+d, func() { firedHeap = append(firedHeap, id) })
		case r < 0.70 && len(hCal) > 0:
			i := rng.Intn(len(hCal))
			sc, sh := hCal[i].Stop(), heap.Stop(hHeap[i])
			if sc != sh {
				t.Fatalf("op %d: Stop disagrees: calendar %v, heap %v", op, sc, sh)
			}
		default:
			for k := rng.Intn(4) + 1; k > 0; k-- {
				pc, ph := cal.step(), heap.step()
				if pc != ph {
					t.Fatalf("op %d: step disagrees: calendar %v, heap %v", op, pc, ph)
				}
			}
		}
		if cal.Pending() != heap.Pending() {
			t.Fatalf("op %d: pending disagrees: calendar %d, heap %d", op, cal.Pending(), heap.Pending())
		}
	}
	cal.Run()
	heap.Run()

	if cal.Now() != heap.now {
		t.Fatalf("clocks disagree after drain: calendar %v, heap %v", cal.Now(), heap.now)
	}
	if cal.Steps() != heap.steps {
		t.Fatalf("step counts disagree: calendar %d, heap %d", cal.Steps(), heap.steps)
	}
	if len(firedCal) != len(firedHeap) {
		t.Fatalf("fired counts disagree: calendar %d, heap %d", len(firedCal), len(firedHeap))
	}
	for i := range firedCal {
		if firedCal[i] != firedHeap[i] {
			t.Fatalf("pop order diverges at event %d: calendar fired %d, heap fired %d", i, firedCal[i], firedHeap[i])
		}
	}
	if n := queuedInCalendar(cal); n != 0 {
		t.Fatalf("%d timers left in calendar structures after drain", n)
	}
}
