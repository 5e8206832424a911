package jobs

import (
	"context"
	"testing"
	"time"
)

// TestRetryAfterSeconds pins the drain-rate estimate: median run time
// × depth / runners, rounded up, clamped to [1, 60], with a 1s cold
// floor when nothing has run yet.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		name string
		m    Metrics
		want int
	}{
		{"cold start", Metrics{QueueDepth: 50, Runners: 4}, 1},
		{"empty queue", Metrics{RunP50Micros: 2e6, Runners: 4}, 1},
		{"drains fast", Metrics{RunP50Micros: 100, QueueDepth: 1, Runners: 4}, 1},
		{"typical backlog", Metrics{RunP50Micros: 500_000, QueueDepth: 10, Runners: 2}, 3},
		{"rounds up", Metrics{RunP50Micros: 1e6, QueueDepth: 3, Runners: 2}, 2},
		{"clamped", Metrics{RunP50Micros: 2e6, QueueDepth: 100, Runners: 1}, 60},
		{"zero runners defends", Metrics{RunP50Micros: 1e6, QueueDepth: 2}, 2},
	}
	for _, c := range cases {
		if got := c.m.RetryAfterSeconds(); got != c.want {
			t.Errorf("%s: RetryAfterSeconds = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestManagerRetryAfterFollowsRunTimes checks the 429 estimate reads
// the observed run times: with the same backlog it is the 1s floor
// before any job has run and grows once jobs of ≥25ms have finished.
func TestManagerRetryAfterFollowsRunTimes(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	run := func(ctx context.Context, payload any) (any, error) {
		if d, ok := payload.(time.Duration); ok {
			time.Sleep(d)
			return nil, nil
		}
		select { // gated
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	// backlog parks one gated job on the only runner and queues 80
	// more behind it.
	backlog := func(m *Manager) {
		t.Helper()
		for i := 0; i < 81; i++ {
			if _, err := m.Submit("gated", 0); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for m.Metrics().Running != 1 {
			if time.Now().After(deadline) {
				t.Fatal("gated job never started")
			}
			time.Sleep(time.Millisecond)
		}
	}

	cold := New(Options{Run: run, Runners: 1, QueueCapacity: 100})
	defer cold.Close()
	backlog(cold)
	if got := cold.RetryAfterSeconds(); got != 1 {
		t.Fatalf("cold RetryAfterSeconds = %d, want the 1s floor", got)
	}

	warm := New(Options{Run: run, Runners: 1, QueueCapacity: 100})
	defer warm.Close()
	for i := 0; i < 5; i++ {
		id, err := warm.Submit(30*time.Millisecond, 0)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, warm, id)
	}
	backlog(warm)
	mt := warm.Metrics()
	if mt.RunP50Micros < 25_000 {
		t.Fatalf("run p50 %gµs after 30ms runs, want >= 25000", mt.RunP50Micros)
	}
	// 80 queued × p50 ≥ 25ms on one runner: at least 2s.
	got := warm.RetryAfterSeconds()
	if got < 2 || got != mt.RetryAfterSeconds() {
		t.Fatalf("warm RetryAfterSeconds = %d, want >= 2 and equal to the snapshot's %d (p50 %gµs, depth %d)",
			got, mt.RetryAfterSeconds(), mt.RunP50Micros, mt.QueueDepth)
	}
}
