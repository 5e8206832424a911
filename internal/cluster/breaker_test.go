package cluster

import (
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

// Breaker tests drive the state machine with a synthetic clock: allow
// and record take explicit times, so no test here sleeps.

func TestBreakerTripsOnErrorRate(t *testing.T) {
	var transitions []BreakerState
	b := newBreaker(BreakerOptions{
		Window: 8, MinSamples: 4, ErrRate: 0.5,
		LatencyThreshold: -1, // latency trip off: isolate the error path
	}, func(to BreakerState) { transitions = append(transitions, to) })
	now := time.Now()
	if !b.allow(now) {
		t.Fatal("closed breaker refused a request")
	}
	b.record(true, time.Millisecond, now)
	b.record(true, time.Millisecond, now)
	b.record(false, time.Millisecond, now)
	if st, _, _ := b.snapshot(); st != BreakerClosed {
		t.Fatalf("tripped below MinSamples: %v", st)
	}
	b.record(false, time.Millisecond, now)
	if st, samples, failed := b.snapshot(); st != BreakerOpen || samples != 4 || failed != 2 {
		t.Fatalf("state %v window %d/%d, want open at 2/4 failures", st, failed, samples)
	}
	if b.allow(now) {
		t.Fatal("open breaker admitted a request")
	}
	if len(transitions) != 1 || transitions[0] != BreakerOpen {
		t.Fatalf("transitions %v, want [open]", transitions)
	}
}

// TestBreakerTripsOnLatencyQuantile is the gray-failure case proper:
// every response is a 200, every response is slow, and the breaker
// must trip anyway — this is exactly the signal the health prober
// cannot see.
func TestBreakerTripsOnLatencyQuantile(t *testing.T) {
	b := newBreaker(BreakerOptions{
		Window: 8, MinSamples: 8, ErrRate: 0.99,
		LatencyQuantile: 0.5, LatencyThreshold: 100 * time.Millisecond,
	}, nil)
	now := time.Now()
	for i := 0; i < 8; i++ {
		b.record(true, 300*time.Millisecond, now)
	}
	if st, _, _ := b.snapshot(); st != BreakerOpen {
		t.Fatalf("state %v, want open on all-success slow window", st)
	}
}

func TestBreakerFastWindowStaysClosed(t *testing.T) {
	b := newBreaker(BreakerOptions{Window: 8, MinSamples: 4}, nil)
	now := time.Now()
	for i := 0; i < 64; i++ {
		b.record(true, 5*time.Millisecond, now)
	}
	if st, _, _ := b.snapshot(); st != BreakerClosed {
		t.Fatalf("healthy traffic tripped the breaker: %v", st)
	}
}

// TestBreakerHalfOpenTrickleAndClose pins the half-open contract: no
// admission before OpenFor, then EXACTLY one admission per
// HalfOpenEvery, and CloseAfter consecutive fast successes close the
// circuit with the sick window forgotten.
func TestBreakerHalfOpenTrickleAndClose(t *testing.T) {
	opts := BreakerOptions{
		Window: 8, MinSamples: 2, ErrRate: 0.5,
		LatencyThreshold: 100 * time.Millisecond,
		OpenFor:          time.Second, HalfOpenEvery: 100 * time.Millisecond,
		CloseAfter: 2,
	}
	b := newBreaker(opts, nil)
	now := time.Now()
	b.record(false, time.Millisecond, now)
	b.record(false, time.Millisecond, now)
	if st, _, _ := b.snapshot(); st != BreakerOpen {
		t.Fatalf("state %v, want open", st)
	}
	if b.allow(now.Add(999 * time.Millisecond)) {
		t.Fatal("admitted before OpenFor elapsed")
	}
	probeAt := now.Add(1100 * time.Millisecond)
	if !b.allow(probeAt) {
		t.Fatal("no probe admitted after OpenFor elapsed")
	}
	if st, _, _ := b.snapshot(); st != BreakerHalfOpen {
		t.Fatal("first post-OpenFor allow should flip to half-open")
	}
	// Exactly the trickle: every allow inside HalfOpenEvery refuses.
	admitted := 1
	for i := 1; i <= 30; i++ {
		if b.allow(probeAt.Add(time.Duration(i) * 10 * time.Millisecond)) {
			admitted++
		}
	}
	// 300ms of asking at 10ms intervals with a 100ms trickle: the
	// initial admission plus the 100/200/300ms replenishments.
	if admitted != 4 {
		t.Fatalf("half-open admitted %d over 300ms, want exactly 4 (1 + 3 trickle slots)", admitted)
	}
	// CloseAfter fast successes close the circuit.
	b.record(true, time.Millisecond, probeAt)
	if st, _, _ := b.snapshot(); st != BreakerHalfOpen {
		t.Fatal("closed before CloseAfter successes")
	}
	b.record(true, time.Millisecond, probeAt)
	st, samples, _ := b.snapshot()
	if st != BreakerClosed {
		t.Fatalf("state %v, want closed after %d fast successes", st, opts.CloseAfter)
	}
	if samples != 0 {
		t.Fatalf("sick window survived the close: %d samples", samples)
	}
}

// TestBreakerSlowSuccessReopens pins the no-flap rule: a half-open
// probe that succeeds SLOWLY reopens the circuit — recovery means
// fast answers, or a still-gray node would oscillate closed/open.
func TestBreakerSlowSuccessReopens(t *testing.T) {
	opts := BreakerOptions{
		Window: 8, MinSamples: 2, ErrRate: 0.5,
		LatencyThreshold: 100 * time.Millisecond, OpenFor: time.Second,
	}
	b := newBreaker(opts, nil)
	now := time.Now()
	b.record(false, time.Millisecond, now)
	b.record(false, time.Millisecond, now)
	probeAt := now.Add(1100 * time.Millisecond)
	if !b.allow(probeAt) {
		t.Fatal("no half-open probe admitted")
	}
	b.record(true, 300*time.Millisecond, probeAt) // a 200, but slow
	if st, _, _ := b.snapshot(); st != BreakerOpen {
		t.Fatalf("state %v, want reopened on slow success", st)
	}
	// And the OpenFor timer restarted from the reopen.
	if b.allow(probeAt.Add(999 * time.Millisecond)) {
		t.Fatal("reopened breaker admitted before a fresh OpenFor")
	}
}

func TestBreakerDisabled(t *testing.T) {
	now := time.Now()
	var nilB *breaker
	if !nilB.allow(now) {
		t.Fatal("nil breaker refused")
	}
	nilB.record(false, 0, now) // must not panic
}

// TestFleetRoutingStableUnderFlappingProbes is the oscillation guard:
// passive health reports that flap below FailThreshold must neither
// bounce liveness nor bounce routing while the owner's breaker is
// open — every request routes steadily to the next replica.
func TestFleetRoutingStableUnderFlappingProbes(t *testing.T) {
	fleet, err := NewFleet([]Member{
		{Name: "n1", URL: "http://127.0.0.1:1"},
		{Name: "n2", URL: "http://127.0.0.1:2"},
	}, FleetOptions{
		ProbeInterval: time.Hour, FailThreshold: 3,
		Breaker: BreakerOptions{Window: 4, MinSamples: 2, ErrRate: 0.5, OpenFor: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	key := uint64(42)
	owner := fleet.Replicas(key)[0]
	var other *Member
	for _, m := range fleet.Members() {
		if m != owner {
			other = m
		}
	}
	// Trip the owner's breaker (OpenFor: an hour — it stays open).
	now := time.Now()
	owner.brk.record(false, time.Millisecond, now)
	owner.brk.record(false, time.Millisecond, now)
	if owner.BreakerState() != BreakerOpen {
		t.Fatal("owner breaker did not open")
	}
	// Flap the passive health below the mark-down threshold.
	for i := 0; i < 50; i++ {
		fleet.ReportFailure(owner)
		if m := fleet.FirstRoutable(key); m != other {
			t.Fatalf("iteration %d: routed to %s, want steady %s", i, m.Name, other.Name)
		}
		fleet.ReportSuccess(owner)
		if m := fleet.FirstRoutable(key); m != other {
			t.Fatalf("iteration %d (post-success): routed to %s, want steady %s", i, m.Name, other.Name)
		}
	}
	if !owner.Up() {
		t.Fatal("sub-threshold flapping marked the owner down")
	}
	// ReportSuccess resets the failure run but must NOT close the
	// breaker — only half-open probes do that.
	if owner.BreakerState() != BreakerOpen {
		t.Fatal("probe success closed the breaker out of band")
	}
}

// TestFirstRoutableFailsOpen: when every up member's breaker refuses,
// routing degrades to plain liveness — the gateway must never
// synthesize an outage the nodes themselves aren't having.
func TestFirstRoutableFailsOpen(t *testing.T) {
	fleet, err := NewFleet([]Member{
		{Name: "n1", URL: "http://127.0.0.1:1"},
		{Name: "n2", URL: "http://127.0.0.1:2"},
	}, FleetOptions{
		ProbeInterval: time.Hour,
		Breaker:       BreakerOptions{Window: 4, MinSamples: 2, ErrRate: 0.5, OpenFor: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for _, m := range fleet.Members() {
		m.brk.record(false, time.Millisecond, now)
		m.brk.record(false, time.Millisecond, now)
		if m.BreakerState() != BreakerOpen {
			t.Fatalf("%s breaker did not open", m.Name)
		}
	}
	key := uint64(42)
	m := fleet.FirstRoutable(key)
	if m == nil {
		t.Fatal("all-open breakers synthesized an outage")
	}
	if want := fleet.Replicas(key)[0]; m != want {
		t.Fatalf("fail-open routed to %s, want the ring owner %s", m.Name, want.Name)
	}
	// With the owner actually down, fail-open lands on the successor.
	fleet.Replicas(key)[0].up.Store(false)
	if m := fleet.FirstRoutable(key); m != fleet.Replicas(key)[1] {
		t.Fatal("fail-open ignored liveness")
	}
}

// refBreaker is the sort-based breaker the running counts replaced:
// it keeps every duration of the window and trips when the sorted
// window's q-quantile reaches the threshold. The state machine around
// the window is the same as breaker's.
type refBreaker struct {
	opts      BreakerOptions
	state     BreakerState
	openedAt  time.Time
	lastProbe time.Time
	successes int
	durs      []time.Duration
	fails     []bool
	n         int
}

func newRefBreaker(opts BreakerOptions) *refBreaker {
	opts = opts.withDefaults()
	return &refBreaker{opts: opts, durs: make([]time.Duration, opts.Window), fails: make([]bool, opts.Window)}
}

func (b *refBreaker) allow(now time.Time) bool {
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.opts.OpenFor {
			return false
		}
		b.state, b.successes, b.lastProbe = BreakerHalfOpen, 0, now
		return true
	default:
		if now.Sub(b.lastProbe) < b.opts.HalfOpenEvery {
			return false
		}
		b.lastProbe = now
		return true
	}
}

func (b *refBreaker) record(ok bool, dur time.Duration, now time.Time) {
	switch b.state {
	case BreakerOpen:
		return
	case BreakerHalfOpen:
		if !ok || (b.opts.LatencyThreshold >= 0 && dur > b.opts.LatencyThreshold) {
			b.state, b.openedAt = BreakerOpen, now
			return
		}
		if b.successes++; b.successes >= b.opts.CloseAfter {
			b.state, b.n = BreakerClosed, 0
		}
		return
	}
	idx := b.n % b.opts.Window
	b.durs[idx], b.fails[idx] = dur, !ok
	b.n++
	samples := min(b.n, b.opts.Window)
	if samples < b.opts.MinSamples {
		return
	}
	failed := 0
	for _, f := range b.fails[:samples] {
		if f {
			failed++
		}
	}
	trip := float64(failed)/float64(samples) >= b.opts.ErrRate
	if !trip && b.opts.LatencyThreshold >= 0 {
		sorted := append([]time.Duration(nil), b.durs[:samples]...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		qi := min(int(float64(samples)*b.opts.LatencyQuantile), samples-1)
		trip = sorted[qi] >= b.opts.LatencyThreshold
	}
	if trip {
		b.state, b.openedAt = BreakerOpen, now
	}
}

// TestBreakerMatchesSortedReference pushes seeded random outcome
// streams through breaker and the sort-based reference side by side
// and requires the same admission and state after every call — every
// trip decision, every half-open probe and every close (which resets
// the window) included.
func TestBreakerMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	durs := []time.Duration{0, time.Millisecond, 49 * time.Millisecond, 50 * time.Millisecond,
		51 * time.Millisecond, 250 * time.Millisecond, 400 * time.Millisecond}
	thresholds := []time.Duration{-1, time.Millisecond, 50 * time.Millisecond, 250 * time.Millisecond}
	trips := 0
	for window := 1; window <= 64; window++ {
		for _, q := range []float64{0.5, 0.9, 0.99} {
			for _, thr := range thresholds {
				opts := BreakerOptions{
					Window:           window,
					MinSamples:       1 + rng.IntN(window+2), // sometimes above the window: never trips
					ErrRate:          []float64{0.25, 0.5, 1}[rng.IntN(3)],
					LatencyQuantile:  q,
					LatencyThreshold: thr,
					OpenFor:          20 * time.Millisecond,
					HalfOpenEvery:    5 * time.Millisecond,
					CloseAfter:       1 + rng.IntN(3),
				}
				got := newBreaker(opts, func(to BreakerState) {
					if to == BreakerOpen {
						trips++
					}
				})
				want := newRefBreaker(opts)
				// Each stream has its own failure and slowness mix, so
				// some windows trip on errors, some on latency, some not.
				failP, slowP := rng.Float64()*0.5, rng.Float64()
				now := time.Unix(0, 0)
				for i := 0; i < 400; i++ {
					now = now.Add(time.Duration(rng.IntN(8)) * time.Millisecond)
					if g, w := got.allow(now), want.allow(now); g != w {
						t.Fatalf("%+v step %d: allow %v, reference %v", opts, i, g, w)
					}
					ok := rng.Float64() >= failP
					d := durs[rng.IntN(2)]
					if rng.Float64() < slowP {
						d = durs[rng.IntN(len(durs))]
					}
					got.record(ok, d, now)
					want.record(ok, d, now)
					if st, _, _ := got.snapshot(); st != want.state {
						t.Fatalf("%+v step %d: state %v, reference %v", opts, i, st, want.state)
					}
				}
			}
		}
	}
	if trips == 0 {
		t.Fatal("no stream tripped a breaker: the comparison covered nothing")
	}
}
