package sim

// refQueue is the reference model the engine's calendar queue is
// checked against: a hand-rolled, index-maintained 4-ary min-heap over
// the same (at, seq) total order, with its own clock and sequence
// counter and the engine's handle semantics (At, ResetAt, Stop, pop).
// It shares no code with the engine beyond the Time type, so an
// ordering bug in the calendar queue cannot hide in the model too.
//
// Children of node i live at 4i+1..4i+4, the parent of node i at
// (i-1)/4. seq is unique, so the order is total and pop order is
// exactly the FIFO-on-ties order the determinism guarantee requires.
type refQueue struct {
	now    Time
	seq    uint64
	steps  uint64
	events []*refTimer
	// dig, when non-nil, folds every popped event, so a digest of the
	// model's stream can be compared with an engine-side StreamDigest.
	dig *StreamDigest
}

// refTimer is one scheduled event of the model; index is its heap
// position, -1 when not queued.
type refTimer struct {
	at      Time
	seq     uint64
	fn      func()
	index   int
	stopped bool
}

func refLess(a, b *refTimer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// At schedules fn at absolute time t and returns its handle.
func (q *refQueue) At(t Time, fn func()) *refTimer {
	tm := &refTimer{index: -1}
	q.schedule(tm, t, fn)
	return tm
}

// ResetAt re-arms tm in place with a fresh sequence number, removing it
// from the queue first if it is still pending; a nil tm schedules a new
// event, as Engine.ResetAt does.
func (q *refQueue) ResetAt(tm *refTimer, t Time, fn func()) *refTimer {
	if tm == nil {
		return q.At(t, fn)
	}
	if tm.index >= 0 {
		q.remove(tm.index)
	}
	q.schedule(tm, t, fn)
	return tm
}

// Stop cancels tm and reports whether that prevented it from firing.
func (q *refQueue) Stop(tm *refTimer) bool {
	if tm == nil || tm.stopped || tm.index == -1 {
		return false
	}
	tm.stopped = true
	q.remove(tm.index)
	return true
}

// Pending returns the number of queued events.
func (q *refQueue) Pending() int { return len(q.events) }

// step pops and runs the earliest event, reporting false when none
// remain.
func (q *refQueue) step() bool {
	if len(q.events) == 0 {
		return false
	}
	tm := q.popMin()
	if q.dig != nil {
		q.dig.OnEvent(q.now, tm.at, tm.seq)
	}
	q.now = tm.at
	q.steps++
	tm.fn()
	return true
}

// Run pops events until none remain.
func (q *refQueue) Run() {
	for q.step() {
	}
}

// RunUntil pops events with timestamps <= t.
func (q *refQueue) RunUntil(t Time) {
	for len(q.events) > 0 && q.events[0].at <= t {
		q.step()
	}
}

func (q *refQueue) schedule(tm *refTimer, t Time, fn func()) {
	q.seq++
	tm.at, tm.seq, tm.fn, tm.stopped = t, q.seq, fn, false
	q.push(tm)
}

func (q *refQueue) push(tm *refTimer) {
	tm.index = len(q.events)
	q.events = append(q.events, tm)
	q.siftUp(tm.index)
}

// popMin removes and returns the earliest timer.
func (q *refQueue) popMin() *refTimer {
	h := q.events
	tm := h[0]
	n := len(h) - 1
	if n > 0 {
		h[0] = h[n]
		h[0].index = 0
	}
	h[n] = nil
	q.events = h[:n]
	if n > 1 {
		q.siftDown(0)
	}
	tm.index = -1
	return tm
}

// remove deletes the timer at heap position i, restoring heap order.
func (q *refQueue) remove(i int) {
	h := q.events
	tm := h[i]
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
		h[i].index = i
		h[n] = nil
		q.events = h[:n]
		if !q.siftDown(i) {
			q.siftUp(i)
		}
	} else {
		h[n] = nil
		q.events = h[:n]
	}
	tm.index = -1
}

// siftUp moves the node at i toward the root until its parent fires no
// later than it does.
func (q *refQueue) siftUp(i int) {
	h := q.events
	tm := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !refLess(tm, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = tm
	tm.index = i
}

// siftDown moves the node at i toward the leaves, swapping with its
// earliest child while that child fires first. It reports whether the
// node moved.
func (q *refQueue) siftDown(i int) bool {
	h := q.events
	n := len(h)
	tm := h[i]
	start := i
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Find the earliest of up to four children.
		min := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if refLess(h[j], h[min]) {
				min = j
			}
		}
		if !refLess(h[min], tm) {
			break
		}
		h[i] = h[min]
		h[i].index = i
		i = min
	}
	h[i] = tm
	tm.index = i
	return i > start
}
