// Adaptive load shedding, CoDel-style. The signal is queue wait (the
// sojourn from submission to a worker picking the task up), and the
// statistic is the WINDOW MINIMUM: a busy engine whose queue still
// drains shows occasional near-zero waits, so its minimum stays low
// and nothing sheds; a standing queue — more offered work than the
// pool clears, the state that turns every caller's latency into queue
// time — keeps even the minimum above the target for a full window,
// and that is the overload verdict.
//
// The engine only RENDERS the verdict (Overloaded); policy lives in
// the server, which rejects the synchronous solve paths with a 503 +
// Retry-After while the verdict stands. Async submissions are
// admitted regardless — they are queue-depth-bounded already and
// their callers asked to wait.
//
// The verdict fails open on stale evidence: queue waits are only
// observed at dequeue, so an engine that went quiet (or idle) stops
// producing evidence and the verdict expires rather than shedding
// traffic on history.

package engine

import (
	"math"
	"sync/atomic"
	"time"
)

// Shedding defaults (Options zero values).
const (
	DefaultShedTarget = 50 * time.Millisecond
	DefaultShedWindow = 100 * time.Millisecond
	// shedStaleAfter expires an overload verdict with no fresh queue
	// observations behind it.
	shedStaleAfter = time.Second
)

// shedController is the windowed-minimum tracker. All state is
// atomic; observe runs on every dequeue and is a handful of loads and
// at most two stores on the happy path.
type shedController struct {
	target time.Duration
	window time.Duration

	windowStart atomic.Int64 // unix nanos of the current window's start
	windowMin   atomic.Int64 // min sojourn (ns) this window; MaxInt64 = empty
	lastObserve atomic.Int64 // unix nanos of the last observation
	shedding    atomic.Bool
	flips       atomic.Uint64 // verdict transitions, both directions
}

// newShedController fills zero (or negative) settings with the
// defaults.
func newShedController(target, window time.Duration, now time.Time) *shedController {
	if target <= 0 {
		target = DefaultShedTarget
	}
	if window <= 0 {
		window = DefaultShedWindow
	}
	s := &shedController{target: target, window: window}
	s.windowStart.Store(now.UnixNano())
	s.windowMin.Store(math.MaxInt64)
	return s
}

// observe feeds one queue wait, rolling the window when it is due.
// Concurrent rolls race benignly: exactly one caller wins the
// windowStart CAS and publishes the verdict; observations landing on
// either side of the roll perturb one window's minimum, which the
// controller tolerates by construction (it is an estimator).
func (s *shedController) observe(sojourn time.Duration, now time.Time) {
	ns := now.UnixNano()
	// Coarse staleness stamp: the horizon is shedStaleAfter (1s), so
	// refreshing once per millisecond is plenty — and it keeps the
	// common back-to-back dequeue from writing the shared cache line
	// at all, which is what every worker would otherwise contend on.
	if ns-s.lastObserve.Load() > int64(time.Millisecond) {
		s.lastObserve.Store(ns)
	}
	for {
		cur := s.windowMin.Load()
		if int64(sojourn) >= cur || s.windowMin.CompareAndSwap(cur, int64(sojourn)) {
			break
		}
	}
	start := s.windowStart.Load()
	if ns-start < int64(s.window) {
		return
	}
	if !s.windowStart.CompareAndSwap(start, ns) {
		return // another dequeue rolled this window
	}
	min := s.windowMin.Swap(math.MaxInt64)
	over := min != math.MaxInt64 && time.Duration(min) > s.target
	if s.shedding.Swap(over) != over {
		s.flips.Add(1)
	}
}

// overloaded reports the current verdict, expiring it when stale.
func (s *shedController) overloaded(now time.Time) bool {
	if !s.shedding.Load() {
		return false
	}
	if now.UnixNano()-s.lastObserve.Load() > int64(shedStaleAfter) {
		if s.shedding.Swap(false) {
			s.flips.Add(1)
		}
		return false
	}
	return true
}

// Overloaded reports whether the engine currently judges itself
// overloaded: the minimum queue wait stayed above the shed target for
// a full window. The server's sync solve paths consult this per
// request and shed with 503 + Retry-After while it holds.
func (e *Engine) Overloaded() bool {
	return e.shed.overloaded(time.Now())
}

// ShedRetryAfterSeconds is the Retry-After a shedding server should
// name: one window is how long the verdict takes to clear once the
// queue drains, so "come back in a second" always spans it.
func ShedRetryAfterSeconds() int { return 1 }
