package faults

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		spec, want string
	}{
		{"none", "none"},
		{"delay=20ms:4", "delay=20ms:4"},
		{"delay=5ms", "delay=5ms:1"},
		{"error=128", "error=128"},
		{"delay=20ms:4,error=128", "delay=20ms:4,error=128"},
		{" delay=1ms:2 , error=3 ", "delay=1ms:2,error=3"},
		{"wal-write-error=64", "wal-write-error=64"},
		{"error=128,wal-write-error=64", "error=128,wal-write-error=64"},
		{"resp-delay=300ms", "resp-delay=300ms:1"},
		{"resp-delay=50ms:4", "resp-delay=50ms:4"},
		{"resp-delay=300ms:1,delay=1ms", "delay=1ms:1,resp-delay=300ms:1"},
	}
	for _, c := range cases {
		inj, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if got := inj.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.spec, got, c.want)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, spec := range []string{
		"", "delay", "delay=", "delay=-5ms", "delay=5ms:0", "delay=5ms:x",
		"error=0", "error=-1", "error=x", "bogus=1", "delay=5ms,,",
		"wal-write-error=0", "wal-write-error=x",
		"resp-delay=", "resp-delay=-1ms", "resp-delay=5ms:0",
		// Clauses that were removed are unknown keys now.
		"ttl-div=100", "wal-fsync-delay=5ms", "blackhole=16",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
}

// TestErrorSchedule pins the counter-based determinism: error=4 fires
// on exactly every 4th call.
func TestErrorSchedule(t *testing.T) {
	inj, err := Parse("error=4")
	if err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 1; i <= 12; i++ {
		if err := inj.BeforeSolve(context.Background()); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("call %d: unexpected error %v", i, err)
			}
			fired = append(fired, i)
		}
	}
	want := []int{4, 8, 12}
	if len(fired) != len(want) {
		t.Fatalf("errors fired on calls %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("errors fired on calls %v, want %v", fired, want)
		}
	}
	if st := inj.Snapshot(); st.Errors != 3 || st.Calls != 12 {
		t.Errorf("snapshot %+v, want 3 errors over 12 calls", st)
	}
}

// TestWALWriteErrorSchedule pins the WAL append fault: independent
// counter, deterministic every-Nth firing, tracked in the snapshot.
func TestWALWriteErrorSchedule(t *testing.T) {
	inj, err := Parse("wal-write-error=3")
	if err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 1; i <= 9; i++ {
		if err := inj.BeforeWALWrite(); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("wal write %d: unexpected error %v", i, err)
			}
			fired = append(fired, i)
		}
	}
	want := []int{3, 6, 9}
	if len(fired) != len(want) {
		t.Fatalf("wal write errors fired on %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("wal write errors fired on %v, want %v", fired, want)
		}
	}
	// The solve-side error counter must not see WAL traffic.
	if st := inj.Snapshot(); st.WALWriteErrors != 3 || st.WALWrites != 9 || st.Errors != 0 {
		t.Errorf("snapshot %+v, want 3 wal write errors over 9 wal writes and 0 solve errors", st)
	}
}

// TestDelayHonorsContext asserts an injected stall unwinds as soon as
// the solve context is canceled — fault injection must not defeat
// cooperative cancellation.
func TestDelayHonorsContext(t *testing.T) {
	inj, err := Parse("delay=10s")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if err := inj.BeforeSolve(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("BeforeSolve = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("injected delay ignored cancellation (%v)", elapsed)
	}
}

// TestRespDelaySchedule pins the HTTP response stall: its own counter,
// deterministic every-Nth firing, interruptible by the request ctx.
func TestRespDelaySchedule(t *testing.T) {
	inj, err := Parse("resp-delay=1ms:2")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 4; i++ {
		if err := inj.BeforeResponse(context.Background()); err != nil {
			t.Fatalf("response %d: %v", i+1, err)
		}
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("4 responses with resp-delay=1ms:2 took %v, want >= 2ms", elapsed)
	}
	if st := inj.Snapshot(); st.RespDelays != 2 || st.RespCalls != 4 || st.Delays != 0 {
		t.Errorf("snapshot %+v, want 2 resp delays over 4 resp calls and 0 solve delays", st)
	}

	// A long stall unwinds the moment the request context dies.
	slow, err := Parse("resp-delay=10s")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start = time.Now()
	if err := slow.BeforeResponse(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("BeforeResponse = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("resp-delay ignored cancellation (%v)", elapsed)
	}
}

func TestRearm(t *testing.T) {
	inj, err := Parse("none")
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.BeforeSolve(context.Background()); err != nil {
		t.Fatalf("idle injector errored: %v", err)
	}
	if err := inj.Rearm("error=1"); err != nil {
		t.Fatal(err)
	}
	if err := inj.BeforeSolve(context.Background()); !errors.Is(err, ErrInjected) {
		t.Fatalf("rearmed injector did not fire: %v", err)
	}
	if err := inj.Rearm("not-a-spec"); err == nil {
		t.Fatal("Rearm accepted a bad spec")
	}
	// A failed rearm leaves the old schedule in place.
	if got := inj.String(); got != "error=1" {
		t.Errorf("schedule after failed rearm: %q", got)
	}
}
