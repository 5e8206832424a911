// Per-node circuit breakers: the gray-failure guard the health prober
// cannot be. A node that is slow-but-alive keeps answering /healthz
// inside the probe timeout, so the fleet keeps it "up" while every
// forwarded request eats hundreds of milliseconds. The breaker watches
// what the prober cannot: the rolling outcome window of real forwarded
// traffic — error rate AND a latency quantile — and ejects the node
// from routing the moment either crosses its threshold.
//
// State machine:
//
//	closed ──(window trips: err-rate ≥ ErrRate or
//	          latency quantile ≥ LatencyThreshold)──▶ open
//	open ──(OpenFor elapsed)──▶ half-open
//	half-open ──(CloseAfter consecutive fast successes)──▶ closed
//	half-open ──(any failure or slow success)──▶ open (timer restarts)
//
// Half-open admits a trickle: at most one routed request per
// HalfOpenEvery, so a still-sick node sees O(4/s) probes instead of
// its full key range. Routing fails OPEN overall — when every up
// replica's breaker refuses, the forwarder ignores breakers rather
// than synthesize an outage the nodes themselves aren't having.
//
// A slow SUCCESS counts against a half-open breaker: recovery means
// fast answers, not just 2xx ones — otherwise a node still serving
// 300ms responses would flap closed/open for the duration of its
// gray period.

package cluster

import (
	"sync"
	"time"
)

// BreakerState is the circuit position. The numeric values are the
// rcagate_breaker_state gauge encoding.
type BreakerState int32

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker defaults (BreakerOptions zero values).
const (
	DefaultBreakerWindow           = 32
	DefaultBreakerMinSamples       = 8
	DefaultBreakerErrRate          = 0.5
	DefaultBreakerLatencyQuantile  = 0.9
	DefaultBreakerLatencyThreshold = 250 * time.Millisecond
	DefaultBreakerOpenFor          = 2 * time.Second
	DefaultBreakerHalfOpenEvery    = 250 * time.Millisecond
	DefaultBreakerCloseAfter       = 3
)

// BreakerOptions tunes the per-node circuit breakers.
type BreakerOptions struct {
	// Window is the rolling outcome-ring size per node (0 = 32).
	Window int
	// MinSamples gates tripping: fewer outcomes in the window than
	// this and the breaker stays closed regardless (0 = 8).
	MinSamples int
	// ErrRate trips the breaker when the window's failure fraction
	// reaches it (0 = 0.5). Failure = transport error or 5xx.
	ErrRate float64
	// LatencyQuantile and LatencyThreshold trip the breaker when the
	// window's duration quantile reaches the threshold — the
	// slow-not-dead signal (0 = q0.9 at 250ms). Threshold < 0 disables
	// the latency trip.
	LatencyQuantile  float64
	LatencyThreshold time.Duration
	// OpenFor is how long an open breaker refuses before half-opening
	// (0 = 2s).
	OpenFor time.Duration
	// HalfOpenEvery is the half-open trickle: at most one routed
	// request admitted per interval (0 = 250ms).
	HalfOpenEvery time.Duration
	// CloseAfter is how many consecutive fast successes close a
	// half-open breaker (0 = 3).
	CloseAfter int
}

// withDefaults fills zero fields.
func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.Window <= 0 {
		o.Window = DefaultBreakerWindow
	}
	if o.MinSamples <= 0 {
		o.MinSamples = DefaultBreakerMinSamples
	}
	if o.ErrRate <= 0 {
		o.ErrRate = DefaultBreakerErrRate
	}
	if o.LatencyQuantile <= 0 {
		o.LatencyQuantile = DefaultBreakerLatencyQuantile
	}
	if o.LatencyThreshold == 0 {
		o.LatencyThreshold = DefaultBreakerLatencyThreshold
	}
	if o.OpenFor <= 0 {
		o.OpenFor = DefaultBreakerOpenFor
	}
	if o.HalfOpenEvery <= 0 {
		o.HalfOpenEvery = DefaultBreakerHalfOpenEvery
	}
	if o.CloseAfter <= 0 {
		o.CloseAfter = DefaultBreakerCloseAfter
	}
	return o
}

// breaker is one member's circuit. All state sits behind one mutex;
// the hot path (closed-state allow) is a lock, a compare and an
// unlock, and record is O(1): a ring push that updates running fail
// and slow counts.
type breaker struct {
	opts BreakerOptions
	// onTransition fires (outside the breaker's own critical section
	// is NOT guaranteed — keep it cheap and non-reentrant) on every
	// state change. Set once at construction.
	onTransition func(to BreakerState)

	mu       sync.Mutex
	state    BreakerState
	openedAt time.Time // valid while open
	// lastProbe is the last half-open admission (zero right after the
	// open→half-open flip so the first probe goes immediately).
	lastProbe time.Time
	// successes counts consecutive fast successes while half-open.
	successes int

	// rolling outcome ring (closed state only): one fail bit and one
	// slow bit (dur ≥ LatencyThreshold) per slot, with the window's
	// running counts of each.
	fails  []bool
	slows  []bool
	n      int // total recorded (ring index = n % Window)
	failed int
	slow   int
}

func newBreaker(opts BreakerOptions, onTransition func(BreakerState)) *breaker {
	opts = opts.withDefaults()
	return &breaker{
		opts:         opts,
		onTransition: onTransition,
		fails:        make([]bool, opts.Window),
		slows:        make([]bool, opts.Window),
	}
}

// transition flips state and notifies.
func (b *breaker) transition(to BreakerState) {
	b.state = to
	if b.onTransition != nil {
		b.onTransition(to)
	}
}

// allow reports whether a routed request may go to this member now.
// closed always admits; open admits nothing until OpenFor has elapsed
// (then flips to half-open); half-open admits the trickle — at most
// one request per HalfOpenEvery.
func (b *breaker) allow(now time.Time) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.opts.OpenFor {
			return false
		}
		b.transition(BreakerHalfOpen)
		b.successes = 0
		b.lastProbe = now
		return true
	default: // half-open
		if now.Sub(b.lastProbe) < b.opts.HalfOpenEvery {
			return false
		}
		b.lastProbe = now
		return true
	}
}

// record feeds one forwarded outcome (ok = complete response with
// status < 500) into the breaker. In the closed state it lands in the
// rolling window and may trip the circuit; half-open it drives the
// close/reopen decision; open it is a stale in-flight straggler and
// is dropped.
func (b *breaker) record(ok bool, dur time.Duration, now time.Time) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		return
	case BreakerHalfOpen:
		fastOK := ok && (b.opts.LatencyThreshold < 0 || dur <= b.opts.LatencyThreshold)
		if !fastOK {
			b.transition(BreakerOpen)
			b.openedAt = now
			return
		}
		if b.successes++; b.successes >= b.opts.CloseAfter {
			b.transition(BreakerClosed)
			b.n, b.failed, b.slow = 0, 0, 0 // forget the sick window
		}
		return
	}
	// Closed: push into the ring, evicting the slot's previous
	// outcome once the window is full, then evaluate.
	idx := b.n % b.opts.Window
	if b.n >= b.opts.Window {
		b.failed -= boolInt(b.fails[idx])
		b.slow -= boolInt(b.slows[idx])
	}
	b.fails[idx] = !ok
	b.slows[idx] = b.opts.LatencyThreshold >= 0 && dur >= b.opts.LatencyThreshold
	b.failed += boolInt(b.fails[idx])
	b.slow += boolInt(b.slows[idx])
	b.n++
	samples := b.n
	if samples > b.opts.Window {
		samples = b.opts.Window
	}
	if samples < b.opts.MinSamples {
		return
	}
	trip := float64(b.failed)/float64(samples) >= b.opts.ErrRate
	if !trip && b.opts.LatencyThreshold >= 0 {
		// The window's q-quantile — the qi-th smallest duration — is at
		// least the threshold exactly when the slow outcomes fill every
		// rank from qi up: slow ≥ samples − qi.
		qi := int(float64(samples) * b.opts.LatencyQuantile)
		if qi >= samples {
			qi = samples - 1
		}
		trip = b.slow >= samples-qi
	}
	if trip {
		b.transition(BreakerOpen)
		b.openedAt = now
	}
}

// snapshot returns the current state and window occupancy for the
// introspection surfaces.
func (b *breaker) snapshot() (state BreakerState, samples, failed int) {
	if b == nil {
		return BreakerClosed, 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	samples = b.n
	if samples > b.opts.Window {
		samples = b.opts.Window
	}
	return b.state, samples, b.failed
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
