package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"dspaddr/internal/core"
)

// Shed controller tests drive the windowed-minimum logic with a
// synthetic clock; only the end-to-end test touches a real engine.

func TestShedTripsOnStandingQueue(t *testing.T) {
	base := time.Now()
	s := newShedController(50*time.Millisecond, 100*time.Millisecond, base)
	// A full window where even the best queue wait exceeds the target.
	for i := 0; i <= 11; i++ {
		s.observe(80*time.Millisecond, base.Add(time.Duration(i)*10*time.Millisecond))
	}
	if !s.overloaded(base.Add(110 * time.Millisecond)) {
		t.Fatal("standing queue did not trip the shed verdict")
	}
	// A window whose minimum dips under the target clears it: the
	// queue drained at least once.
	base = base.Add(110 * time.Millisecond)
	for i := 0; i <= 11; i++ {
		wait := 80 * time.Millisecond
		if i == 5 {
			wait = time.Millisecond // one drain is enough
		}
		s.observe(wait, base.Add(time.Duration(i)*10*time.Millisecond))
	}
	if s.overloaded(base.Add(110 * time.Millisecond)) {
		t.Fatal("a drained queue kept shedding")
	}
	if flips := s.flips.Load(); flips != 2 {
		t.Fatalf("flips = %d, want 2 (on and off)", flips)
	}
}

func TestShedBusyButDrainingStaysOff(t *testing.T) {
	base := time.Now()
	s := newShedController(50*time.Millisecond, 100*time.Millisecond, base)
	// High p99-style waits but frequent near-zero minima: busy, fine.
	for i := 0; i <= 40; i++ {
		wait := time.Duration(i%4) * 60 * time.Millisecond // 0, 60, 120, 180ms
		s.observe(wait, base.Add(time.Duration(i)*10*time.Millisecond))
	}
	if s.overloaded(base.Add(410 * time.Millisecond)) {
		t.Fatal("draining queue tripped the shed verdict")
	}
}

func TestShedVerdictExpiresWhenStale(t *testing.T) {
	base := time.Now()
	s := newShedController(50*time.Millisecond, 100*time.Millisecond, base)
	for i := 0; i <= 11; i++ {
		s.observe(80*time.Millisecond, base.Add(time.Duration(i)*10*time.Millisecond))
	}
	at := base.Add(110 * time.Millisecond)
	if !s.overloaded(at) {
		t.Fatal("verdict did not trip")
	}
	// No dequeues for longer than the staleness bound: fail open.
	if s.overloaded(at.Add(shedStaleAfter + time.Millisecond)) {
		t.Fatal("stale verdict did not expire")
	}
}

// TestShedNonPositiveSettingsTakeDefaults: there is no off switch —
// a zero or negative target or window selects the defaults.
func TestShedNonPositiveSettingsTakeDefaults(t *testing.T) {
	for _, d := range []time.Duration{0, -1} {
		s := newShedController(d, d, time.Now())
		if s == nil {
			t.Fatalf("settings %v disabled the controller", d)
		}
		if s.target != DefaultShedTarget || s.window != DefaultShedWindow {
			t.Errorf("settings %v: target %v window %v, want %v and %v",
				d, s.target, s.window, DefaultShedTarget, DefaultShedWindow)
		}
	}
}

// TestEngineOverloadedEndToEnd floods a one-worker engine with slow
// solves so real tasks queue, and asserts Overloaded flips on — then
// back off once the queue drains.
func TestEngineOverloadedEndToEnd(t *testing.T) {
	e := New(Options{
		Workers:    1,
		CacheSize:  -1,
		ShedTarget: 5 * time.Millisecond,
		ShedWindow: 20 * time.Millisecond,
	})
	defer e.Close()
	e.solve = func(ctx context.Context, s *core.Solver, r Request) (*core.Result, error) {
		time.Sleep(15 * time.Millisecond) // every solve outlasts the target
		return s.Allocate(ctx, r.Pattern, r.config())
	}

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct patterns so no job is a cache hit.
			e.Run(context.Background(), testRequest(i+1, 0, 2))
		}(i)
	}
	wg.Wait()
	if !e.Overloaded() {
		t.Fatal("a standing queue on a one-worker pool never tripped Overloaded")
	}
	// Quiet period: the verdict must expire (staleness) rather than
	// shed forever on history.
	deadline := time.Now().Add(2 * shedStaleAfter)
	for e.Overloaded() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if e.Overloaded() {
		t.Fatal("shed verdict never cleared after the flood")
	}
	if s := e.Stats(); s.ShedFlips == 0 {
		t.Fatal("ShedFlips never counted the transitions")
	}
}
