package sim

import "math"

// StreamDigest is a rolling FNV-1a (64-bit) digest over the engine's
// executed-event stream. Each event folds in the tuple the differential
// queue tests compare — the execution timestamp's exact float64 bits,
// the schedule sequence number, and a clock-advanced kind byte — so two
// runs have equal digests exactly when a recorded-trace comparison
// would find their event streams identical, but the comparison needs
// O(1) memory instead of a recorded trace (the pinned seed-1 macro run
// is 403989 events).
//
// The digest is a ProbeHook that wakes on every event, installed with
// Engine.SetStreamDigest: absent, it costs nothing beyond the observer
// slot's one comparison per event; enabled, it is allocation-free
// (TestStreamDigestZeroAlloc pins this). The zero value is ready to use.
type StreamDigest struct {
	sum    uint64
	events uint64
}

// FNV-1a 64-bit parameters (FNV-0 offset basis and prime).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// OnEvent implements ProbeHook: it absorbs one executed event and asks
// to see the next one.
func (d *StreamDigest) OnEvent(prev, at Time, seq uint64) Time {
	h := d.sum
	if d.events == 0 {
		h = fnvOffset64
	}
	h = foldWord(h, floatBits(at))
	h = foldWord(h, seq)
	var kind uint64
	if at > prev {
		kind = 1 // the clock advanced; 0 = same-timestamp successor
	}
	d.sum = (h ^ kind) * fnvPrime64
	d.events++
	return math.Inf(-1)
}

// floatBits exposes the exact bit pattern of a timestamp: digests must
// distinguish timestamps the differential trace comparison would, which
// is bit equality, not printf equality.
func floatBits(t Time) uint64 { return math.Float64bits(float64(t)) }

// foldWord folds the eight bytes of w, little-endian, FNV-1a style.
func foldWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (w & 0xff)) * fnvPrime64
		w >>= 8
	}
	return h
}

// Sum returns the digest over the events folded so far. An empty digest
// returns the FNV-1a offset basis — the canonical hash of no input.
func (d *StreamDigest) Sum() uint64 {
	if d.events == 0 {
		return fnvOffset64
	}
	return d.sum
}

// Events returns how many events have been folded.
func (d *StreamDigest) Events() uint64 { return d.events }

// Reset returns the digest to its empty state.
func (d *StreamDigest) Reset() { d.sum, d.events = 0, 0 }

// SetStreamDigest installs d (non-nil) in the engine's observer slot;
// see AddProbe.
func (e *Engine) SetStreamDigest(d *StreamDigest) { e.AddProbe(d) }
