package trace

import (
	"sync"
	"time"
)

// Recorder keeps two bounded rings of finished traces: every observed
// trace enters the recent ring, and traces whose root span exceeds the
// slow threshold also enter the slow ring. Both rings evict oldest-first
// at fixed capacity, so memory stays bounded no matter the request rate.
// The rings hold the traces themselves; a trace's Summary is built only
// when Recent or Slow reads it, so it also shows the spans that ended
// after Observe (a run that outlived its request).
type Recorder struct {
	mu        sync.Mutex
	recent    []*Trace
	slow      []*Trace
	recentCap int
	slowCap   int
	threshold time.Duration
}

// Defaults for NewRecorder when a capacity is zero or negative.
const (
	defaultRecentCap = 64
	defaultSlowCap   = 32
)

// NewRecorder builds a recorder holding up to recentCap recent traces
// and slowCap slow traces; traces at or above threshold count as slow
// (threshold <= 0 disables slow capture). Non-positive capacities take
// the package defaults.
func NewRecorder(recentCap, slowCap int, threshold time.Duration) *Recorder {
	if recentCap <= 0 {
		recentCap = defaultRecentCap
	}
	if slowCap <= 0 {
		slowCap = defaultSlowCap
	}
	return &Recorder{recentCap: recentCap, slowCap: slowCap, threshold: threshold}
}

// Threshold returns the slow-trace capture threshold.
func (r *Recorder) Threshold() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.threshold
}

// Observe records a trace whose root span has ended into the rings. A nil
// trace — an untraced request — is ignored.
func (r *Recorder) Observe(t *Trace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	dur := t.root.Duration
	t.mu.Unlock()
	r.mu.Lock()
	r.recent = push(r.recent, t, r.recentCap)
	if r.threshold > 0 && dur >= r.threshold {
		r.slow = push(r.slow, t, r.slowCap)
	}
	r.mu.Unlock()
}

// push appends keeping at most cap entries, evicting oldest-first.
func push(ring []*Trace, t *Trace, capacity int) []*Trace {
	ring = append(ring, t)
	if overflow := len(ring) - capacity; overflow > 0 {
		ring = append(ring[:0], ring[overflow:]...)
	}
	return ring
}

// Recent summarizes the recent ring, newest last.
func (r *Recorder) Recent() []Summary {
	r.mu.Lock()
	ring := append([]*Trace(nil), r.recent...)
	r.mu.Unlock()
	return summarize(ring)
}

// Slow summarizes the slow ring, newest last.
func (r *Recorder) Slow() []Summary {
	r.mu.Lock()
	ring := append([]*Trace(nil), r.slow...)
	r.mu.Unlock()
	return summarize(ring)
}

// summarize builds the Summary of each trace, outside the recorder's lock.
func summarize(ring []*Trace) []Summary {
	if len(ring) == 0 {
		return nil
	}
	out := make([]Summary, len(ring))
	for i, t := range ring {
		out[i] = t.Summarize()
	}
	return out
}
