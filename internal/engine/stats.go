// Aggregate serving statistics: lock-free atomic counters on the hot
// path (the former single collector mutex serialized every job
// completion across the pool), solve latency percentiles from the
// native solve histogram that /metrics also exposes.

package engine

import (
	"sync/atomic"
	"time"

	"dspaddr/internal/obs"
)

// Stats is a point-in-time snapshot of an engine's counters.
type Stats struct {
	// Workers is the configured worker-pool size.
	Workers int `json:"workers"`
	// Jobs counts completed jobs of every outcome.
	Jobs uint64 `json:"jobs"`
	// CacheHits counts jobs answered from the canonical-pattern cache.
	CacheHits uint64 `json:"cacheHits"`
	// CacheMisses counts jobs that ran the solver (successfully).
	CacheMisses uint64 `json:"cacheMisses"`
	// Errors counts jobs failed by the allocator or a bad request.
	Errors uint64 `json:"errors"`
	// Timeouts counts jobs abandoned past the per-job deadline.
	Timeouts uint64 `json:"timeouts"`
	// Canceled counts jobs whose submitting context was canceled.
	Canceled uint64 `json:"canceled"`
	// CacheEntries is the current number of cached canonical results
	// across all shards; CacheCapacity is the configured total bound
	// (0 with caching disabled) and CacheShards the lock-domain count.
	CacheEntries  int `json:"cacheEntries"`
	CacheCapacity int `json:"cacheCapacity"`
	CacheShards   int `json:"cacheShards"`
	// HitRate is CacheHits over (CacheHits+CacheMisses), 0 when idle.
	HitRate float64 `json:"hitRate"`
	// SolveP50Micros, SolveP90Micros and SolveP99Micros are latency
	// percentiles in microseconds over every solve since start,
	// interpolated within the solve histogram's buckets (cache misses
	// only — hits are two orders of magnitude cheaper).
	SolveP50Micros float64 `json:"solveP50Micros"`
	SolveP90Micros float64 `json:"solveP90Micros"`
	SolveP99Micros float64 `json:"solveP99Micros"`
	// Shedding reports the current adaptive load-shedding verdict;
	// ShedFlips counts verdict transitions in either direction.
	Shedding  bool   `json:"shedding"`
	ShedFlips uint64 `json:"shedFlips"`
}

// collector accumulates statistics; all methods are concurrency-safe.
// Counters are independent atomics — a snapshot is not a consistent
// cut across them, which monitoring tolerates in exchange for jobs
// not contending on a shared mutex.
type collector struct {
	workers  int
	jobs     atomic.Uint64
	hits     atomic.Uint64
	misses   atomic.Uint64
	errors   atomic.Uint64
	timeouts atomic.Uint64
	canceled atomic.Uint64
	// solveHist holds the latency of every successful solve;
	// the snapshot percentiles and /metrics both read it.
	solveHist *obs.Histogram
}

// newSolveHistogram builds the collector's solve histogram.
func newSolveHistogram() *obs.Histogram {
	return obs.NewHistogram("rcaserve_engine_solve_duration_seconds",
		"Engine solve latency (cache misses only).", nil)
}

func (c *collector) hit() {
	c.jobs.Add(1)
	c.hits.Add(1)
}

func (c *collector) solved(d time.Duration) {
	c.jobs.Add(1)
	c.misses.Add(1)
	c.solveHist.Observe(d)
}

func (c *collector) failed() {
	c.jobs.Add(1)
	c.errors.Add(1)
}

func (c *collector) timedOut() {
	c.jobs.Add(1)
	c.timeouts.Add(1)
}

func (c *collector) canceledJob() {
	c.jobs.Add(1)
	c.canceled.Add(1)
}

// snapshot renders the current counters plus latency percentiles.
func (c *collector) snapshot() Stats {
	s := Stats{
		Workers:     c.workers,
		Jobs:        c.jobs.Load(),
		CacheHits:   c.hits.Load(),
		CacheMisses: c.misses.Load(),
		Errors:      c.errors.Load(),
		Timeouts:    c.timeouts.Load(),
		Canceled:    c.canceled.Load(),
	}

	if looked := s.CacheHits + s.CacheMisses; looked > 0 {
		s.HitRate = float64(s.CacheHits) / float64(looked)
	}
	s.SolveP50Micros = micros(c.solveHist.Quantile(0.50))
	s.SolveP90Micros = micros(c.solveHist.Quantile(0.90))
	s.SolveP99Micros = micros(c.solveHist.Quantile(0.99))
	return s
}

// micros renders a duration in (fractional) microseconds.
func micros(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}
