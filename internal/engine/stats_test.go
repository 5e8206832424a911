// Tests for the stats collector's solve percentiles: they come from
// the solve histogram, cover every solve since start and are zero
// before the first one.

package engine

import (
	"testing"
	"time"

	"dspaddr/internal/model"
)

// TestSolvePercentilesSinceStart runs two generations of solves and
// checks the percentiles see both — the histogram keeps every
// observation since start, interpolated within its buckets — while the
// job counters keep counting every observation.
func TestSolvePercentilesSinceStart(t *testing.T) {
	c := collector{solveHist: newSolveHistogram()}
	const n = 4096
	for i := 0; i < n; i++ {
		c.solved(10 * time.Microsecond)
	}
	if s := c.snapshot(); s.SolveP50Micros != 12.5 || s.SolveP99Micros != 24.75 {
		t.Fatalf("first generation: p50=%g p99=%g, want 12.5/24.75 (inside the 25µs bucket)", s.SolveP50Micros, s.SolveP99Micros)
	}
	for i := 0; i < n; i++ {
		c.solved(1000 * time.Microsecond)
	}
	// Half the samples sit in (0, 25µs], half in (500µs, 1ms]: p50
	// closes the first bucket, p90 and p99 interpolate in the second.
	s := c.snapshot()
	if s.SolveP50Micros != 25 || s.SolveP90Micros != 900 || s.SolveP99Micros != 990 {
		t.Fatalf("both generations: p50=%g p90=%g p99=%g, want 25/900/990",
			s.SolveP50Micros, s.SolveP90Micros, s.SolveP99Micros)
	}
	if s.Jobs != 2*n || s.CacheMisses != 2*n {
		t.Fatalf("counters lost observations: %+v", s)
	}
}

// TestPercentilesNoSamples checks an idle collector reports zero
// percentiles rather than NaN or garbage.
func TestPercentilesNoSamples(t *testing.T) {
	c := collector{solveHist: newSolveHistogram()}
	s := c.snapshot()
	if s.SolveP50Micros != 0 || s.SolveP90Micros != 0 || s.SolveP99Micros != 0 {
		t.Fatalf("idle percentiles non-zero: %+v", s)
	}
	if s.HitRate != 0 {
		t.Fatalf("idle hit rate %g", s.HitRate)
	}
}

// TestPercentilesOneSample checks a single observation places every
// percentile inside its bucket, (25µs, 50µs], at the rank's share of
// the bucket width.
func TestPercentilesOneSample(t *testing.T) {
	c := collector{solveHist: newSolveHistogram()}
	c.solved(42 * time.Microsecond)
	s := c.snapshot()
	if s.SolveP50Micros != 37.5 || s.SolveP90Micros != 47.5 || s.SolveP99Micros != 49.75 {
		t.Fatalf("single-sample percentiles %+v, want 37.5/47.5/49.75", s)
	}
	if s.Jobs != 1 || s.CacheMisses != 1 {
		t.Fatalf("counters off: %+v", s)
	}
}

// TestEngineStatsPercentilesFromSolves drives real solves through an
// engine and checks Stats reads the same histogram /metrics exposes.
func TestEngineStatsPercentilesFromSolves(t *testing.T) {
	e := New(Options{Workers: 1, CacheSize: -1})
	defer e.Close()
	for i := 0; i < 3; i++ {
		req := Request{Pattern: model.PaperExample(), AGU: model.AGUSpec{Registers: 1, ModifyRange: 1}}
		if res := e.Run(t.Context(), req); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	s := e.Stats()
	if s.SolveP50Micros <= 0 || s.SolveP99Micros < s.SolveP50Micros {
		t.Fatalf("solve percentiles after 3 solves: %+v", s)
	}
	if n := e.SolveHistogram().Count(); n != 3 {
		t.Fatalf("solve histogram count %d, want 3", n)
	}
}
