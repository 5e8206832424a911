package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"dspaddr/internal/faults"
	"dspaddr/internal/model"
)

// TestFaultInjectionErrors: an armed error schedule surfaces as
// ordinary job failures (counted in Errors), and an injected failure
// is never cached — the next identical request solves for real.
func TestFaultInjectionErrors(t *testing.T) {
	inj, err := faults.Parse("error=1") // every solve fails
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 2, Faults: inj})
	defer e.Close()
	req := Request{
		Pattern: model.Pattern{Array: "A", Stride: 1, Offsets: []int{1, 0, 2, -1, 1, 0, -2}},
		AGU:     model.AGUSpec{Registers: 2, ModifyRange: 1},
	}
	res := e.Run(context.Background(), req)
	if !errors.Is(res.Err, faults.ErrInjected) {
		t.Fatalf("want injected error, got %v", res.Err)
	}
	// Disarm: the same request must now succeed — the failure did not
	// poison the cache.
	if err := inj.Rearm("none"); err != nil {
		t.Fatal(err)
	}
	res = e.Run(context.Background(), req)
	if res.Err != nil {
		t.Fatalf("after disarm: %v", res.Err)
	}
	if res.Result.Cost != 0 {
		t.Fatalf("paper example cost %d, want 0", res.Result.Cost)
	}
	if s := e.Stats(); s.Errors == 0 {
		t.Errorf("injected failure not counted: %+v", s)
	}
}

// TestFaultInjectionDelayOnMissOnly: an injected stall slows the
// cache miss that solves; a subsequent identical request hits the
// cache and pays nothing.
func TestFaultInjectionDelayOnMissOnly(t *testing.T) {
	inj, err := faults.Parse("delay=50ms")
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 2, Faults: inj})
	defer e.Close()
	req := Request{
		Pattern: model.Pattern{Array: "A", Stride: 1, Offsets: []int{3, 1, 2}},
		AGU:     model.AGUSpec{Registers: 1, ModifyRange: 1},
	}
	start := time.Now()
	if res := e.Run(context.Background(), req); res.Err != nil {
		t.Fatal(res.Err)
	}
	if cold := time.Since(start); cold < 50*time.Millisecond {
		t.Fatalf("cold solve returned in %v, injected delay is 50ms", cold)
	}
	start = time.Now()
	res := e.Run(context.Background(), req)
	if res.Err != nil || !res.CacheHit {
		t.Fatalf("warm request: hit=%v err=%v", res.CacheHit, res.Err)
	}
	if warm := time.Since(start); warm > 40*time.Millisecond {
		t.Fatalf("cache hit took %v — injection leaked onto the hit path", warm)
	}
}
