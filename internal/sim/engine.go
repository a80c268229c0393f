// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a priority queue of timed events and a simulated
// clock. Events scheduled for the same instant fire in the order they were
// scheduled, which makes runs bit-for-bit reproducible for a given seed.
// Simulated time is a float64 number of seconds, the same convention ns-2
// uses; all of the paper's scenarios run for at most a few thousand
// simulated seconds, far below the range where float64 granularity could
// reorder events.
//
// The queue is a time-bucketed calendar queue (calqueue.go) with O(1)
// amortized insert and pop for the tick-dominated schedules the paper's
// scenarios produce, ordered by (at, seq). A 4-ary min-heap over the
// same order survives only in the tests, as the reference model the
// randomized differential compares the engine against. Fired
// handle-less timers are recycled through a free list, so the
// steady-state packet path schedules events without allocating.
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Time is a simulated timestamp or duration, in seconds.
type Time = float64

// Timer is a handle to a scheduled event. The zero value is not meaningful;
// timers are created by Engine.At and Engine.After (or reused through
// Engine.ResetAt, Engine.ResetAfter, and their *Func variants).
//
// Field order is deliberate: the hot comparison key (at, seq) shares the
// first cache line with the callback pair, the queue-membership links
// follow, and the two int32 positions plus the flag bytes pack the tail
// instead of padding three separate words.
type Timer struct {
	at  Time
	seq uint64
	// fnA/arg is the only callback form the queue executes: hot paths
	// schedule a pre-bound callback with a per-event argument and no
	// closure allocation, and the handle API (At/After/ResetAt) boxes its
	// func() through callFunc (funcs are pointer-shaped, so the boxing
	// does not allocate either).
	fnA func(any)
	arg any
	eng *Engine
	// next/prev link the timer into its calendar-queue bucket (an
	// intrusive doubly-linked list, so Stop unlinks in O(1) with no
	// per-bucket storage).
	next, prev *Timer
	// index is the position in the sorted overflow slice; for bucket
	// residents it is pinned to 0. It is -1 exactly when the timer is
	// not queued, so Pending stays one comparison.
	index int32
	// bkt is the calendar bucket index, bktOverflow for the sorted
	// far-future overflow, bktNone when not queued.
	bkt     int32
	stopped bool
	pooled  bool // engine-owned (no external handle); recycle after firing
}

// callFunc adapts the handle API's func() callbacks to the single fnA
// execution path. A func value is pointer-shaped, so storing it in arg
// does not allocate.
func callFunc(a any) { a.(func())() }

// Stop cancels the timer and removes it from the engine's event queue, so
// a cancelled timer costs no memory and no queue traversal. Stopping an
// already-fired or already-stopped timer is a no-op. Stop reports whether
// the call prevented the event from firing.
func (t *Timer) Stop() bool {
	if t == nil || t.stopped || t.index == -1 {
		return false
	}
	t.stopped = true
	t.eng.stops++
	t.eng.cq.remove(t)
	return true
}

// Stopped reports whether the timer has been cancelled.
func (t *Timer) Stopped() bool { return t == nil || t.stopped }

// Pending reports whether the timer is armed: scheduled and neither fired
// nor stopped. Callers that re-arm one logical timer through ResetAt use
// it as the "is a timer outstanding" predicate, since a reused handle is
// never nil.
func (t *Timer) Pending() bool { return t != nil && !t.stopped && t.index >= 0 }

// When returns the simulated time the timer is (or was) scheduled to fire.
func (t *Timer) When() Time { return t.at }

// ProbeHook observes executed events: state sampling (internal/obs),
// invariant auditing (internal/invariant) and the stream digest all
// ride it. OnEvent returns the next simulated time the hook wants to
// observe; the engine skips the hook entirely until an event reaches
// that time, so a probe that samples on a cadence costs one float
// comparison per event between ticks, a disabled probe (returning +Inf)
// costs that comparison forever, and a hook that returns -Inf wakes on
// every event. Called synchronously on the simulation goroutine;
// implementations must not mutate the engine.
type ProbeHook interface {
	// OnEvent is called immediately before an event executes. prev is
	// the clock value before this event advanced it; at and seq identify
	// the event popped from the queue. It returns the earliest simulated
	// time at which the hook needs to run again (+Inf for never); the
	// engine will not call it for events before that time.
	OnEvent(prev, at Time, seq uint64) Time
}

// Engine is a discrete-event scheduler. Create one with New; the zero
// value is not usable because it lacks an RNG.
type Engine struct {
	now    Time
	seq    uint64
	cq     *calQueue
	free   []*Timer // recycled timers with no external references
	rng    *rand.Rand
	nsteps uint64
	// hook is the single observer slot (see AddProbe); several hooks
	// share it through a fanout. hookAt is its requested wake time:
	// events strictly before it skip the hook with one comparison. +Inf
	// when nothing is installed (or the installed hook asked never to be
	// called again).
	hook   ProbeHook
	hookAt Time
	crash  func(reason string)
	// budget, when non-nil, bounds Run/RunUntil (see Budget). One pointer
	// check per run leg when absent.
	budget *budgetState

	// Scheduler counters, maintained unconditionally: plain integer
	// increments on paths that already touch the same cache lines, so
	// they are free at the scale the benchmarks resolve. nsteps is the
	// fired-event counter and predates these.
	scheduled uint64 // timers accepted by At/After/AtFunc/ResetAt
	rearms    uint64 // in-place ResetAt/ResetAfter reschedules
	stops     uint64 // Timer.Stop calls that cancelled a live timer
}

// New returns an engine whose clock starts at zero and whose random
// number generator is seeded with seed. Two engines constructed with the
// same seed and fed the same schedule produce identical runs.
func New(seed int64) *Engine {
	return &Engine{
		rng:    rand.New(rand.NewSource(seed)),
		cq:     newCalQueue(calDefaultWidth),
		hookAt: math.Inf(1),
	}
}

// HintTick sizes the calendar queue's buckets to the dominant event
// cadence dt (per-packet transmission time at the bottleneck, for the
// paper's topologies), so back-to-back packet events land in adjacent
// buckets instead of piling into one. The hint affects performance only,
// never event order; the width adapter still corrects a badly wrong hint.
// No-op for non-positive/non-finite dt.
func (e *Engine) HintTick(dt Time) {
	if !(dt > 0) || math.IsInf(dt, 0) {
		return
	}
	e.cq.rebuild(len(e.cq.b), dt)
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random number generator.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Steps returns the number of events executed so far. It is useful for
// benchmarking and for loop guards in tests.
func (e *Engine) Steps() uint64 { return e.nsteps }

// Pending returns the exact number of live (non-stopped, not yet fired)
// timers. Stopped timers are removed from the queue immediately, so they
// never inflate this count.
func (e *Engine) Pending() int { return e.cq.n }

// AddProbe installs h in the engine's observer slot. Hooks never
// schedule timers, so installing one cannot change the event sequence a
// seed produces. The hook is first consulted on the next executed event,
// after which its own return values pace it (see ProbeHook); install it
// in its final enabled/disabled state, since a hook that answered
// "never again" is not re-consulted. A second hook turns the slot into a
// fanout that wakes each hook on its own schedule, so the slot's cost
// with nothing installed stays one comparison per event.
func (e *Engine) AddProbe(h ProbeHook) {
	switch cur := e.hook.(type) {
	case nil:
		e.hook = h
	case *fanout:
		*cur = append(*cur, wakingHook{h, math.Inf(-1)})
	default:
		e.hook = &fanout{{cur, e.hookAt}, {h, math.Inf(-1)}}
	}
	e.hookAt = math.Inf(-1)
}

// fanout shares the observer slot between several hooks, each with its
// own wake time; the slot wakes at the earliest of them.
type fanout []wakingHook

type wakingHook struct {
	ProbeHook
	at Time
}

func (f *fanout) OnEvent(prev, at Time, seq uint64) Time {
	next := math.Inf(1)
	for i := range *f {
		w := &(*f)[i]
		if at >= w.at {
			w.at = w.OnEvent(prev, at, seq)
		}
		if w.at < next {
			next = w.at
		}
	}
	return next
}

// SetCrashHook installs fn to run immediately before the engine panics
// on a scheduling-validation failure, so a flight recorder can dump its
// ring before the stack unwinds. nil (the default) disables it.
func (e *Engine) SetCrashHook(fn func(reason string)) { e.crash = fn }

// Scheduled returns the number of timers accepted onto the queue since
// construction (At/After/AtFunc/AfterFunc and every ResetAt re-arm).
func (e *Engine) Scheduled() uint64 { return e.scheduled }

// Rearms returns the number of in-place ResetAt/ResetAfter reschedules.
func (e *Engine) Rearms() uint64 { return e.rearms }

// Stops returns the number of Timer.Stop calls that cancelled a live
// timer.
func (e *Engine) Stops() uint64 { return e.stops }

// validate panics on timestamps that would corrupt the schedule.
// Scheduling in the past (t < Now) always indicates a model bug, and
// silently clamping would corrupt causality. Non-finite times (NaN, ±Inf)
// panic on the same path: NaN in particular compares false against
// everything, so it would otherwise slip past the t < now guard and
// corrupt queue ordering for every later event. Every scheduling entry
// point (At, AtFunc, ResetAtFunc) runs this guard before the timer
// reaches the queue, so rejection behavior is identical on all of them.
func (e *Engine) validate(t Time) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		e.crashf(fmt.Sprintf("sim: scheduling event at non-finite time %v (now %v)", t, e.now))
	}
	if t < e.now {
		e.crashf(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
}

// crashf gives the crash hook (a flight-recorder dump, typically) a
// chance to run, then panics with reason.
func (e *Engine) crashf(reason string) {
	if e.crash != nil {
		e.crash(reason)
	}
	panic(reason)
}

// schedule stamps tm with the next sequence number and inserts it into
// the queue. The caller has already validated t and set the callback
// fields.
func (e *Engine) schedule(t Time, tm *Timer) {
	e.scheduled++
	e.seq++
	tm.at = t
	tm.seq = e.seq
	tm.stopped = false
	e.cq.insert(tm)
}

// newTimer returns a zeroed timer, reusing a recycled one when available.
func (e *Engine) newTimer() *Timer {
	if n := len(e.free); n > 0 {
		tm := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return tm
	}
	return &Timer{eng: e, index: -1, bkt: bktNone}
}

// recycle returns an engine-owned timer to the free list. Callback and
// argument references are dropped so a parked timer cannot retain packets
// or closures.
func (e *Engine) recycle(tm *Timer) {
	tm.fnA = nil
	tm.arg = nil
	tm.pooled = false
	tm.stopped = false
	if e.free == nil {
		// One right-sized allocation instead of append's doubling walk;
		// the macro scenarios park a few dozen timers at peak.
		e.free = make([]*Timer, 0, 64)
	}
	e.free = append(e.free, tm)
}

// At schedules fn to run at absolute simulated time t and returns a
// handle that can Stop it. Scheduling in the past or at a non-finite
// time panics (see validate).
func (e *Engine) At(t Time, fn func()) *Timer {
	e.validate(t)
	tm := e.newTimer()
	tm.fnA = callFunc
	tm.arg = fn
	e.schedule(t, tm)
	return tm
}

// After schedules fn to run d seconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) *Timer {
	return e.At(e.now+d, fn)
}

// AtFunc schedules fn(arg) at absolute time t without returning a
// handle. The timer is engine-owned: it cannot be stopped, and it is
// recycled the moment it fires, so a steady stream of AtFunc events
// allocates nothing once the free list is warm. fn should be a callback
// bound once at setup (a stored method value), not a fresh closure, or
// the allocation simply moves into the caller.
func (e *Engine) AtFunc(t Time, fn func(any), arg any) {
	e.validate(t)
	tm := e.newTimer()
	tm.fnA = fn
	tm.arg = arg
	tm.pooled = true
	e.schedule(t, tm)
}

// AfterFunc schedules fn(arg) d seconds from now without returning a
// handle; see AtFunc.
func (e *Engine) AfterFunc(d Time, fn func(any), arg any) {
	e.AtFunc(e.now+d, fn, arg)
}

// ResetAt reschedules tm to run fn at absolute time t, reusing the timer
// object in place: if tm is still pending it is first removed from the
// queue (exactly like Stop), and either way the same handle is returned
// re-armed with a fresh sequence number. A nil tm (or one belonging to a
// different engine) allocates as At does. Because the object is reused
// only through the handle the caller already holds, recycling is safe by
// construction; callers that re-arm one logical timer per event (RTO
// timers, pacing loops) allocate nothing in steady state.
func (e *Engine) ResetAt(tm *Timer, t Time, fn func()) *Timer {
	return e.ResetAtFunc(tm, t, callFunc, fn)
}

// ResetAfter is ResetAt relative to the current time.
func (e *Engine) ResetAfter(tm *Timer, d Time, fn func()) *Timer {
	return e.ResetAtFunc(tm, e.now+d, callFunc, fn)
}

// ResetAtFunc is ResetAt for the pre-bound fn(arg) callback form: one
// logical timer per call site, re-armed in place each event, zero
// steady-state allocation and — unlike AtFunc — no free-list round trip
// per event. The returned handle is caller-owned and never recycled by
// the engine. It consumes exactly one sequence number per call, the same
// as AtFunc, so swapping one for the other cannot change the event
// stream a seed produces.
func (e *Engine) ResetAtFunc(tm *Timer, t Time, fn func(any), arg any) *Timer {
	if tm == nil || tm.eng != e {
		e.validate(t)
		tm = e.newTimer()
		tm.fnA = fn
		tm.arg = arg
		e.schedule(t, tm)
		return tm
	}
	e.validate(t)
	e.rearms++
	if tm.index >= 0 {
		e.cq.remove(tm)
	}
	tm.fnA = fn
	tm.arg = arg
	e.schedule(t, tm)
	return tm
}

// ResetAfterFunc is ResetAtFunc relative to the current time.
func (e *Engine) ResetAfterFunc(tm *Timer, d Time, fn func(any), arg any) *Timer {
	return e.ResetAtFunc(tm, e.now+d, fn, arg)
}

// exec advances the clock to tm and runs its callback. tm has already
// been removed from the queue.
func (e *Engine) exec(tm *Timer) {
	prev := e.now
	e.now = tm.at
	e.nsteps++
	if tm.at >= e.hookAt {
		e.hookAt = e.hook.OnEvent(prev, tm.at, tm.seq)
	}
	fn, arg := tm.fnA, tm.arg
	if tm.pooled {
		e.recycle(tm)
	}
	fn(arg)
}

// step executes the earliest pending event. It reports false when no
// runnable events remain. Stopped timers are removed from the queue by
// Stop itself, so every popped timer is live.
func (e *Engine) step() bool {
	tm := e.cq.findMin()
	if tm == nil {
		return false
	}
	e.cq.popHead(tm)
	e.exec(tm)
	return true
}

// Run executes events until none remain. Most scenarios instead use
// RunUntil with an explicit horizon because traffic sources reschedule
// themselves forever. An installed Budget (SetBudget) can stop the run
// early; check Halted afterwards.
func (e *Engine) Run() {
	if e.budget != nil {
		e.runBudgeted(math.Inf(1))
		return
	}
	for e.step() {
	}
}

// RunUntil executes events with timestamps <= t and then advances the
// clock to exactly t. Events scheduled at t run; events after t stay
// queued for a later call. If an installed Budget halts the run, the
// clock stays where the halt left it (check Halted).
func (e *Engine) RunUntil(t Time) {
	if e.budget != nil {
		if e.runBudgeted(t) && t > e.now {
			e.now = t
		}
		return
	}
	for {
		tm := e.cq.findMin()
		if tm == nil || tm.at > t {
			break
		}
		e.cq.popHead(tm)
		e.exec(tm)
	}
	if t > e.now {
		e.now = t
	}
}

// timerLess reports whether event a fires before event b: ordering is
// (at, seq), and seq is unique, so the order is total and pop order is
// exactly the FIFO-on-ties order the determinism guarantee requires.
func timerLess(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
